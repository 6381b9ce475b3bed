#include "text/tokenizer.h"

#include <array>

namespace qatk::text {

namespace {

enum class CharClass { kSpace, kWord, kPunct };

/// ASCII classes as std::isspace/std::isalnum see them in the "C" locale;
/// every byte >= 0x80 (UTF-8 lead or continuation) is a word character.
constexpr CharClass Classify(unsigned char c) {
  if (c >= 0x80) return CharClass::kWord;
  if (c == ' ' || (c >= '\t' && c <= '\r')) return CharClass::kSpace;
  if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
      (c >= 'A' && c <= 'Z')) {
    return CharClass::kWord;
  }
  return CharClass::kPunct;
}

/// Calls `emit(begin, end, cls)` for every maximal run of word or of
/// punctuation characters, in order.
template <typename Emit>
void ForEachRun(std::string_view input, Emit&& emit) {
  size_t i = 0;
  while (i < input.size()) {
    CharClass cls = Classify(static_cast<unsigned char>(input[i]));
    if (cls == CharClass::kSpace) {
      ++i;
      continue;
    }
    size_t start = i;
    while (i < input.size() &&
           Classify(static_cast<unsigned char>(input[i])) == cls) {
      ++i;
    }
    emit(start, i, cls);
  }
}

/// Per byte: its lower-cased form if it is a word byte (Classify), else
/// 0, which no word byte folds to.
constexpr std::array<char, 256> kFoldedWordByte = [] {
  std::array<char, 256> table{};
  for (int c = 1; c < 256; ++c) {
    if (Classify(static_cast<unsigned char>(c)) != CharClass::kWord) continue;
    table[c] = static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
  }
  return table;
}();

/// Per second byte of a 0xC3 pair: the two ASCII bytes the umlaut or ß it
/// encodes folds to, or {0, 0} (every other pair folds byte by byte).
constexpr std::array<std::array<char, 2>, 256> kUmlautFold = [] {
  std::array<std::array<char, 2>, 256> table{};
  table[0xA4] = table[0x84] = {'a', 'e'};  // ä Ä
  table[0xB6] = table[0x96] = {'o', 'e'};  // ö Ö
  table[0xBC] = table[0x9C] = {'u', 'e'};  // ü Ü
  table[0x9F] = {'s', 's'};                // ß
  return table;
}();

}  // namespace

std::vector<Token> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<Token> tokens;
  ForEachRun(input, [&](size_t begin, size_t end, CharClass cls) {
    Token token;
    token.text = std::string(input.substr(begin, end - begin));
    token.begin = begin;
    token.end = end;
    token.kind =
        cls == CharClass::kWord ? TokenKind::kWord : TokenKind::kPunctuation;
    tokens.push_back(std::move(token));
  });
  return tokens;
}

std::vector<std::string> Tokenizer::WordsNormalized(
    std::string_view input) const {
  FoldedWords folded;
  WordsNormalized(input, &folded);
  return {folded.words().begin(), folded.words().end()};
}

void Tokenizer::WordsNormalized(std::string_view input,
                                FoldedWords* out) const {
  out->words_.clear();
  // One pass over the bytes, folding FoldGerman's rules through the tables
  // above. Folding never lengthens a word, so the buffer is sized once to
  // the input and the word views into it stay valid.
  out->text_.resize(input.size());
  char* const base = out->text_.data();
  char* write = base;
  const auto* read = reinterpret_cast<const unsigned char*>(input.data());
  const auto* const end = read + input.size();
  while (read < end) {
    if (kFoldedWordByte[*read] == 0) {
      ++read;
      continue;
    }
    char* const word = write;
    do {
      // A 0xC3 pair's second byte is >= 0x80, so a word byte: the pair
      // never straddles the end of a word.
      if (*read == 0xC3 && read + 1 < end) {
        const std::array<char, 2>& pair = kUmlautFold[read[1]];
        if (pair[0] != 0) {
          write[0] = pair[0];
          write[1] = pair[1];
          write += 2;
          read += 2;
          continue;
        }
      }
      *write++ = kFoldedWordByte[*read++];
    } while (read < end && kFoldedWordByte[*read] != 0);
    out->words_.emplace_back(word, static_cast<size_t>(write - word));
  }
  out->text_.resize(static_cast<size_t>(write - base));
}

}  // namespace qatk::text
