// The reference kb::FeatureExtractor is checked against: each feature
// model's preprocessing run as a cas::Pipeline of the CAS annotators, with
// the mentions read back out of the CAS.

#ifndef QATK_TESTS_FEATURE_REFERENCE_H_
#define QATK_TESTS_FEATURE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cas/annotators.h"
#include "cas/cas.h"
#include "cas/pipeline.h"
#include "common/logging.h"
#include "kb/features.h"
#include "taxonomy/concept_annotator.h"

namespace qatk::kb::reference {

/// \brief One model's preprocessing as a CAS pipeline:
///  * bag-of-words: Tokenizer;
///  * bag-of-words-nostop: Tokenizer -> StopwordFilter;
///  * bag-of-stems: Tokenizer -> LanguageDetector -> Stemmer ->
///    StopwordFilter;
///  * bag-of-concepts: Tokenizer -> TrieConceptAnnotator.
class CasReference {
 public:
  CasReference(FeatureModel model,
               std::shared_ptr<const tax::ConceptTrie> concepts)
      : model_(model) {
    pipeline_.Add(std::make_unique<cas::TokenizerAnnotator>());
    switch (model) {
      case FeatureModel::kBagOfWords:
        break;
      case FeatureModel::kBagOfWordsNoStop:
        pipeline_.Add(std::make_unique<cas::StopwordAnnotator>());
        break;
      case FeatureModel::kBagOfStems:
        pipeline_.Add(std::make_unique<cas::LanguageAnnotator>());
        pipeline_.Add(std::make_unique<cas::StemmerAnnotator>());
        pipeline_.Add(std::make_unique<cas::StopwordAnnotator>());
        break;
      case FeatureModel::kBagOfConcepts:
        pipeline_.Add(
            std::make_unique<tax::TrieConceptAnnotator>(std::move(concepts)));
        break;
    }
  }

  /// Runs the pipeline on `document`; the CAS stays readable via cas().
  TermMentions ExtractTerms(const std::string& document) {
    cas_.set_document(document);
    QATK_CHECK_OK(pipeline_.Process(&cas_));
    TermMentions mentions;
    if (model_ == FeatureModel::kBagOfConcepts) {
      for (const cas::Annotation* a : cas_.Select(cas::types::kConcept)) {
        mentions.concept_ids.push_back(
            a->GetInt(cas::types::kFeatureConceptId));
      }
      return mentions;
    }
    const bool filter_stop = model_ != FeatureModel::kBagOfWords;
    const bool use_stem = model_ == FeatureModel::kBagOfStems;
    for (const cas::Annotation* token : cas_.Select(cas::types::kToken)) {
      if (token->GetString(cas::types::kFeatureKind) != "word") continue;
      if (filter_stop && token->GetInt(cas::types::kFeatureStopword) == 1) {
        continue;
      }
      mentions.words.emplace_back(token->GetString(
          use_stem ? cas::types::kFeatureStem : cas::types::kFeatureNorm));
    }
    return mentions;
  }

  const cas::Cas& cas() const { return cas_; }

 private:
  FeatureModel model_;
  cas::Pipeline pipeline_;
  cas::Cas cas_;
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
/// overlapping) another match: any two concept spans of `cas` are
/// identical or disjoint.
inline bool ConceptSpansDisjoint(const cas::Cas& cas) {
  size_t begin = 0;
  size_t end = 0;
  for (const cas::Annotation* a : cas.Select(cas::types::kConcept)) {
    const bool same = a->begin == begin && a->end == end;
    if (!same && a->begin < end) return false;
    begin = a->begin;
    end = a->end;
  }
  return true;
}

/// Runs `document` through `direct` and `reference` and checks that the
/// mentions (in order), the feature ids and the mention count agree.
/// `reference_vocabulary` plays the part of the direct extractor's
/// vocabulary: interned into when `direct` interns, looked up when it is
/// frozen.
inline void ExpectSameExtraction(FeatureExtractor* direct,
                                 CasReference* reference,
                                 FeatureVocabulary* reference_vocabulary,
                                 bool frozen, const std::string& document) {
  Result<TermMentions> terms = direct->ExtractTerms(document);
  ASSERT_TRUE(terms.ok()) << terms.status();
  const TermMentions expected = reference->ExtractTerms(document);
  ASSERT_EQ(terms->words, expected.words);
  ASSERT_EQ(terms->concept_ids, expected.concept_ids);
  ASSERT_TRUE(ConceptSpansDisjoint(reference->cas()));

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
