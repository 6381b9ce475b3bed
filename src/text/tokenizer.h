#ifndef QATK_TEXT_TOKENIZER_H_
#define QATK_TEXT_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qatk::text {

/// Kind of a surface token.
enum class TokenKind {
  kWord,         ///< Letters/digits (incl. UTF-8 multibyte characters).
  kPunctuation,  ///< A run of punctuation characters.
};

/// \brief One token with byte offsets into the source text.
struct Token {
  std::string text;
  size_t begin = 0;  ///< Byte offset of the first character.
  size_t end = 0;    ///< Byte offset one past the last character.
  TokenKind kind = TokenKind::kWord;

  bool operator==(const Token& other) const {
    return text == other.text && begin == other.begin && end == other.end &&
           kind == other.kind;
  }
};

/// \brief The folded word tokens of one document, stored back to back in
/// one buffer (Tokenizer::WordsNormalized fills it).
///
/// Reusable: refilling keeps the buffer's capacity, so a warm caller folds
/// a document without allocating. The word views point into the buffer,
/// which is why it can be neither copied nor moved.
class FoldedWords {
 public:
  FoldedWords() = default;
  FoldedWords(const FoldedWords&) = delete;
  FoldedWords& operator=(const FoldedWords&) = delete;

  /// The folded words in document order; valid until the next refill.
  const std::vector<std::string_view>& words() const { return words_; }

 private:
  friend class Tokenizer;

  std::string text_;
  std::vector<std::string_view> words_;
};

/// \brief The paper's "simple custom whitespace-/punctuation-tokenizer"
/// (§4.5.2): splits on whitespace and on punctuation boundaries, emitting
/// punctuation runs as separate tokens so downstream stages can skip them.
///
/// Multibyte UTF-8 sequences (umlauts etc.) are treated as word characters.
/// Intra-word hyphens and periods split ("Bremsen-Schlauch" → 3 tokens,
/// "z.B." → 4), matching the messy-data reality that compound separators
/// are inconsistent.
class Tokenizer {
 public:
  Tokenizer() = default;

  /// Tokenizes `input`; offsets refer to bytes of `input`.
  std::vector<Token> Tokenize(std::string_view input) const;

  /// Word tokens only, as lower-cased/German-folded strings: exactly the
  /// word tokens of Tokenize, each passed through FoldGerman.
  std::vector<std::string> WordsNormalized(std::string_view input) const;

  /// As above, folded into `out` (replacing its previous contents) in one
  /// pass over `input`: each byte is classified and lower-cased through a
  /// 256-entry table, umlaut and ß pairs fold inline, and the words are
  /// written into a buffer sized once to `input`. No Token vector, no
  /// per-word string.
  void WordsNormalized(std::string_view input, FoldedWords* out) const;
};

}  // namespace qatk::text

#endif  // QATK_TEXT_TOKENIZER_H_
