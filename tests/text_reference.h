// A deliberately naive tokenizer and German fold, written from the text
// rules in DESIGN.md §4 and sharing no code with src/text/ or
// common/strutil. The equivalence tests compare kb::FeatureExtractor with
// a reference built on these, so a bug in the shared tokenizing or folding
// code shows up as a mismatch instead of being reproduced on both sides.
//
// The rules:
//  * ASCII whitespace (space, \t, \n, \v, \f, \r) separates tokens;
//  * ASCII letters and digits and every byte >= 0x80 are word bytes;
//  * every other byte is punctuation, and a punctuation byte ends a word;
//  * a word is a maximal run of word bytes, so whitespace and punctuation
//    both end one and the words need no list of whitespace bytes;
//  * a word folds left to right: ä/Ä -> ae, ö/Ö -> oe, ü/Ü -> ue,
//    ß -> ss (their two-byte UTF-8 forms), A-Z -> a-z, and every other
//    byte stays as it is.
//
// Speed is no aim here: every byte is looked up in a list of characters.

#ifndef QATK_TESTS_TEXT_REFERENCE_H_
#define QATK_TESTS_TEXT_REFERENCE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qatk::naive {

/// True for the bytes the rules call word bytes.
inline bool IsWordByte(char c) {
  static constexpr std::string_view kAsciiWordBytes =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  return static_cast<unsigned char>(c) >= 0x80 ||
         kAsciiWordBytes.find(c) != std::string_view::npos;
}

/// The words of `text` as they stand in it, in order.
inline std::vector<std::string> Words(std::string_view text) {
  std::vector<std::string> words;
  std::string word;
  for (char c : text) {
    if (IsWordByte(c)) {
      word += c;
    } else if (!word.empty()) {
      words.push_back(word);
      word.clear();
    }
  }
  if (!word.empty()) words.push_back(word);
  return words;
}

/// `word` folded by the rules.
inline std::string Fold(std::string_view word) {
  static const std::pair<std::string_view, std::string_view> kUmlauts[] = {
      {"ä", "ae"}, {"Ä", "ae"}, {"ö", "oe"}, {"Ö", "oe"},
      {"ü", "ue"}, {"Ü", "ue"}, {"ß", "ss"},
  };
  static constexpr std::string_view kUpper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  static constexpr std::string_view kLower = "abcdefghijklmnopqrstuvwxyz";
  std::string folded;
  size_t i = 0;
  while (i < word.size()) {
    bool replaced = false;
    for (const auto& [umlaut, replacement] : kUmlauts) {
      if (word.substr(i, umlaut.size()) == umlaut) {
        folded += replacement;
        i += umlaut.size();
        replaced = true;
        break;
      }
    }
    if (replaced) continue;
    const size_t upper = kUpper.find(word[i]);
    folded += upper == std::string_view::npos ? word[i] : kLower[upper];
    ++i;
  }
  return folded;
}

/// The folded words of `text`, in order.
inline std::vector<std::string> FoldedWords(std::string_view text) {
  std::vector<std::string> folded;
  for (const std::string& word : Words(text)) folded.push_back(Fold(word));
  return folded;
}

}  // namespace qatk::naive

#endif  // QATK_TESTS_TEXT_REFERENCE_H_
