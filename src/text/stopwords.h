#ifndef QATK_TEXT_STOPWORDS_H_
#define QATK_TEXT_STOPWORDS_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/strutil.h"

namespace qatk::text {

/// \brief Bilingual stopword filter.
///
/// The paper's §5.2.2 extension removes "German and English stopwords
/// (articles and personal pronouns)" to speed up the bag-of-words
/// classifier without changing its accuracy. The lists here cover those
/// plus the most frequent closed-class function words of both languages.
///
/// Words are matched after FoldGerman normalization ("für" → "fuer").
class StopwordFilter {
 public:
  StopwordFilter();

  /// True if `folded_word` (already lower-cased/folded) is a stopword in
  /// either language.
  bool IsStopword(std::string_view folded_word) const;

  size_t size() const { return words_.size(); }

 private:
  /// Transparent: IsStopword looks up the view itself, no string built.
  std::unordered_set<std::string, StringHash, std::equal_to<>> words_;
};

}  // namespace qatk::text

#endif  // QATK_TEXT_STOPWORDS_H_
