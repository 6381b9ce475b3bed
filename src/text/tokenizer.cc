#include "text/tokenizer.h"

#include "common/logging.h"
#include "common/strutil.h"

namespace qatk::text {

namespace {

enum class CharClass { kSpace, kWord, kPunct };

/// ASCII classes as std::isspace/std::isalnum see them in the "C" locale;
/// every byte >= 0x80 (UTF-8 lead or continuation) is a word character.
CharClass Classify(unsigned char c) {
  if (c >= 0x80) return CharClass::kWord;
  if (c == ' ' || (c >= '\t' && c <= '\r')) return CharClass::kSpace;
  if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
      (c >= 'A' && c <= 'Z')) {
    return CharClass::kWord;
  }
  return CharClass::kPunct;
}

/// Calls `emit(begin, end, cls)` for every maximal run of word or of
/// punctuation characters, in order. The one scan both Tokenize and
/// WordsNormalized use, so they always agree on the word runs.
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
  out->text_.clear();
  out->words_.clear();
  // Folding never lengthens a run, so reserving the input's size up front
  // means no append below reallocates and the views stay valid.
  out->text_.reserve(input.size());
  const char* const base = out->text_.data();
  ForEachRun(input, [&](size_t begin, size_t end, CharClass cls) {
    if (cls != CharClass::kWord) return;
    const size_t offset = out->text_.size();
    FoldGermanAppend(input.substr(begin, end - begin), &out->text_);
    out->words_.emplace_back(base + offset, out->text_.size() - offset);
  });
  QATK_DCHECK(out->text_.data() == base) << "folding outgrew the reserve";
}

}  // namespace qatk::text
