// The reference kb::FeatureExtractor is checked against: each feature
// model's preprocessing rebuilt on the naive tokenizer and fold of
// text_reference.h and the naive concept matcher of concept_reference.h,
// so it shares no tokenizing, folding or matching code with the direct
// pass. Stopwords, language detection (on the raw text, where the direct
// pass detects on its folded words) and stemming are called directly.

#ifndef QATK_TESTS_FEATURE_REFERENCE_H_
#define QATK_TESTS_FEATURE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "concept_reference.h"
#include "kb/features.h"
#include "taxonomy/taxonomy.h"
#include "text/language.h"
#include "text/stemmer.h"
#include "text/stopwords.h"
#include "text_reference.h"

namespace qatk::kb::reference {

/// \brief One model's preprocessing over the naive words:
///  * bag-of-words: the words;
///  * bag-of-words-nostop: minus stopwords;
///  * bag-of-stems: minus stopwords, each stemmed in the language
///    LanguageDetector::Detect finds in the raw document;
///  * bag-of-concepts: the concept ids of naive::ConceptMatcher's matches
///    over `taxonomy` (non-null for bag-of-concepts, else ignored).
class TextReference {
 public:
  TextReference(FeatureModel model, const tax::Taxonomy* taxonomy)
      : model_(model) {
    if (model_ == FeatureModel::kBagOfConcepts) {
      concepts_ = std::make_unique<naive::ConceptMatcher>(*taxonomy);
    }
  }

  /// Extracts `document`'s mentions; the concept matches stay readable via
  /// matches() until the next call.
  TermMentions ExtractTerms(const std::string& document) {
    words_ = naive::FoldedWords(document);
    matches_.clear();
    TermMentions mentions;
    switch (model_) {
      case FeatureModel::kBagOfWords:
        mentions.words = words_;
        break;
      case FeatureModel::kBagOfWordsNoStop:
        for (const std::string& word : words_) {
          if (!stopwords_.IsStopword(word)) mentions.words.push_back(word);
        }
        break;
      case FeatureModel::kBagOfStems: {
        const text::Language language = detector_.Detect(document);
        for (const std::string& word : words_) {
          if (stopwords_.IsStopword(word)) continue;
          mentions.words.push_back(stemmer_.Stem(word, language));
        }
        break;
      }
      case FeatureModel::kBagOfConcepts:
        matches_ = concepts_->Matches(words_);
        for (const naive::ConceptMatcher::Match& match : matches_) {
          mentions.concept_ids.insert(mentions.concept_ids.end(),
                                      match.concepts.begin(),
                                      match.concepts.end());
        }
        break;
    }
    return mentions;
  }

  /// The concept matches and the word count of the last document.
  const std::vector<naive::ConceptMatcher::Match>& matches() const {
    return matches_;
  }
  size_t num_words() const { return words_.size(); }

 private:
  FeatureModel model_;
  std::unique_ptr<naive::ConceptMatcher> concepts_;
  text::StopwordFilter stopwords_;
  text::LanguageDetector detector_;
  text::Stemmer stemmer_;
  std::vector<std::string> words_;
  std::vector<naive::ConceptMatcher::Match> matches_;
};

/// Mention count of `mentions` (what last_mention_count reports when
/// every mention resolves).
inline size_t MentionCount(const TermMentions& mentions) {
  return mentions.words.size() + mentions.concept_ids.size();
}

/// Frozen-vocabulary resolution of reference mentions: unknown words are
/// dropped. Sets `*resolved` to the number of mentions kept.
inline std::vector<int64_t> LookupMentions(FeatureModel model,
                                           const TermMentions& mentions,
                                           const FeatureVocabulary& vocabulary,
                                           size_t* resolved) {
  std::vector<int64_t> ids = mentions.concept_ids;
  if (model != FeatureModel::kBagOfConcepts) {
    for (const std::string& word : mentions.words) {
      const int64_t id = vocabulary.Lookup(word);
      if (id >= 0) ids.push_back(id);
    }
  }
  *resolved = ids.size();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// The left-bounded longest match never emits a concept inside (or
/// overlapping) another match: every match covers at least one of the
/// `num_words` words, and each starts after the previous one ends.
inline bool MatchesDisjoint(
    const std::vector<naive::ConceptMatcher::Match>& matches,
    size_t num_words) {
  size_t end = 0;
  for (const naive::ConceptMatcher::Match& match : matches) {
    if (match.length == 0 || match.first < end) return false;
    end = match.first + match.length;
    if (end > num_words) return false;
  }
  return true;
}

/// Runs `document` through `direct` and `reference` and checks that the
/// mentions (in order), the feature ids and the mention count agree.
/// `reference_vocabulary` plays the part of the direct extractor's
/// vocabulary: interned into when `direct` interns, looked up when it is
/// frozen.
inline void ExpectSameExtraction(FeatureExtractor* direct,
                                 TextReference* reference,
                                 FeatureVocabulary* reference_vocabulary,
                                 bool frozen, const std::string& document) {
  Result<TermMentions> terms = direct->ExtractTerms(document);
  ASSERT_TRUE(terms.ok()) << terms.status();
  const TermMentions expected = reference->ExtractTerms(document);
  ASSERT_EQ(terms->words, expected.words);
  ASSERT_EQ(terms->concept_ids, expected.concept_ids);
  ASSERT_TRUE(MatchesDisjoint(reference->matches(), reference->num_words()));

  Result<std::vector<int64_t>> ids = direct->Extract(document);
  ASSERT_TRUE(ids.ok()) << ids.status();
  size_t expected_count = MentionCount(expected);
  const std::vector<int64_t> expected_ids =
      frozen ? LookupMentions(direct->model(), expected,
                              *reference_vocabulary, &expected_count)
             : InternMentions(direct->model(), expected,
                              reference_vocabulary);
  ASSERT_EQ(*ids, expected_ids);
  ASSERT_EQ(direct->last_mention_count(), expected_count);
}

}  // namespace qatk::kb::reference

#endif  // QATK_TESTS_FEATURE_REFERENCE_H_
