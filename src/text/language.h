#ifndef QATK_TEXT_LANGUAGE_H_
#define QATK_TEXT_LANGUAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/strutil.h"

namespace qatk::text {

/// Languages recognized by the detector. The corpus is "mostly a mix of
/// German and English" (paper §3.2); anything else maps to kUnknown.
enum class Language { kGerman, kEnglish, kUnknown };

const char* LanguageToString(Language lang);

/// \brief Character n-gram language detector (Cavnar–Trenkle rank-order
/// profiles) for German vs. English.
///
/// Profiles are built from embedded seed corpora, so the detector works
/// offline with no model files; the default detector shares one immutable
/// pair of seed profiles built once per process. Short or signal-free
/// inputs return kUnknown instead of guessing.
class LanguageDetector {
 public:
  /// The detector over the embedded German/English seed corpora.
  LanguageDetector();

  /// Builds the detector from caller-supplied training text per language
  /// (e.g. a domain corpus whose vocabulary the embedded seeds miss).
  LanguageDetector(std::string_view german_corpus,
                   std::string_view english_corpus);

  /// Detects the dominant language of `input`.
  Language Detect(std::string_view input) const;

  /// Detect over the words of a document already folded by
  /// Tokenizer::WordsNormalized: Detect(input) is exactly
  /// DetectFolded(<the folded words of input>).
  Language DetectFolded(const std::vector<std::string_view>& words) const;

  /// Per-language out-of-place distance (lower = closer). Exposed for the
  /// tests and the pipeline's confidence gating.
  struct Scores {
    double german = 0;
    double english = 0;
  };
  Scores Score(std::string_view input) const;

 private:
  /// n-gram -> rank (0 = most frequent) for one language profile.
  using Profile =
      std::unordered_map<std::string, size_t, StringHash, std::equal_to<>>;
  struct Profiles {
    Profile german;
    Profile english;
  };

  static Profile BuildProfile(std::string_view corpus, size_t max_ngrams);
  static std::shared_ptr<const Profiles> SeedProfiles();
  /// Distances of `words`' trigrams to both profiles; `*ngrams` receives
  /// the trigram count.
  Scores Distances(const std::vector<std::string_view>& words,
                   size_t* ngrams) const;

  std::shared_ptr<const Profiles> profiles_;
  size_t profile_size_;
};

}  // namespace qatk::text

#endif  // QATK_TEXT_LANGUAGE_H_
