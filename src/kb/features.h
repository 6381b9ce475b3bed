#ifndef QATK_KB_FEATURES_H_
#define QATK_KB_FEATURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "taxonomy/concept_trie.h"
#include "taxonomy/taxonomy.h"
#include "text/language.h"
#include "text/stemmer.h"
#include "text/tokenizer.h"

namespace qatk::kb {

/// Feature representation of a data bundle (paper §4.3): the
/// domain-ignorant bag-of-words, its stopword-filtered variant (§5.2.2),
/// and the domain-specific bag-of-concepts.
enum class FeatureModel {
  kBagOfWords,
  kBagOfWordsNoStop,
  /// Stemmed, stopword-filtered words (the §6 preprocessing extension).
  kBagOfStems,
  kBagOfConcepts,
};

const char* FeatureModelToString(FeatureModel model);

/// \brief Bidirectional word <-> id interning for bag-of-words features.
///
/// Word features are interned to int64 ids so both feature models share
/// one similarity kernel and one knowledge-node representation. The
/// vocabulary is persisted next to the knowledge base.
class FeatureVocabulary {
 public:
  FeatureVocabulary() = default;

  /// Returns the id for `word`, assigning the next id on first sight.
  int64_t Intern(const std::string& word);

  /// Returns the id or -1 when the word is unknown (read-only lookup used
  /// at test time: unseen words can never match a knowledge node anyway).
  int64_t Lookup(const std::string& word) const;

  /// Inverse mapping; KeyError for unknown ids.
  Result<std::string> WordOf(int64_t id) const;

  size_t size() const { return word_to_id_.size(); }

  /// Restores an entry with a fixed id (persistence path). Ids must stay
  /// dense and unique.
  Status Restore(const std::string& word, int64_t id);

  /// All (word, id) pairs ordered by id.
  std::vector<std::pair<std::string, int64_t>> Entries() const;

 private:
  std::unordered_map<std::string, int64_t> word_to_id_;
  std::vector<std::string> id_to_word_;
};

/// The compiled taxonomy `model` needs: a fresh ConceptTrie built from
/// `taxonomy` (non-null) for kBagOfConcepts, nullptr for the word models.
/// Build once and share it between all extractors of one taxonomy
/// snapshot.
std::shared_ptr<const tax::ConceptTrie> BuildConcepts(
    FeatureModel model, const tax::Taxonomy* taxonomy);

/// Preprocessing output of one document *before* vocabulary interning: the
/// normalized (or stemmed) word mentions in document order for the word
/// models, or the concept ids for bag-of-concepts. Carries no vocabulary
/// state, so it can be produced on any thread and interned later.
struct TermMentions {
  std::vector<std::string> words;
  std::vector<int64_t> concept_ids;
};

/// \brief Turns a composed document into a sorted, deduplicated feature-id
/// set by running the QATK preprocessing (§4.4 step 2) in one direct pass.
///
/// Every model first folds the document's words in one table-driven pass
/// (Tokenizer::WordsNormalized into a reused FoldedWords). Then:
///  * bag-of-words: the words as they are;
///  * bag-of-words-nostop: minus stopwords (StopwordFilter);
///  * bag-of-stems: the document language (LanguageDetector), then each
///    non-stopword stemmed in that language (Stemmer);
///  * bag-of-concepts: the concept ids of the trie matches
///    (ConceptTrie::FindMentions, which resolves each folded word to a
///    token id once and matches on the ids; "we use the concept mentions
///    as attributes without distinguishing between types of concepts").
/// The word models then intern (or look up) the words in the vocabulary.
/// Serving and training both run this one pass; no CAS is built. The tests
/// pin it to an independent reference (tests/feature_reference.h) whose
/// naive tokenizer, German fold and map-based concept matcher share no
/// code with text::Tokenizer or the trie.
///
/// Thread-safety: an extractor keeps no per-stage timing state but does
/// keep reusable scratch (the folded words, their token ids and the
/// matches), so one extractor serves one thread. Any number of extractors may share one immutable
/// ConceptTrie. Several extractors may share the same vocabulary only if
/// all of them are frozen (read-only lookups) or access is externally
/// serialized.
class FeatureExtractor {
 public:
  /// `concepts` is the compiled taxonomy the bag-of-concepts model
  /// annotates with (non-null for kBagOfConcepts, ignored otherwise; see
  /// BuildConcepts); it may be shared with other extractors on any thread.
  /// `vocabulary` (non-null, caller-owned) is used by the word models,
  /// which intern every word they see into it.
  FeatureExtractor(FeatureModel model,
                   std::shared_ptr<const tax::ConceptTrie> concepts,
                   FeatureVocabulary* vocabulary);

  /// Read-only extractor over a frozen vocabulary (the serving and test
  /// phase): extracts with Lookup, so unseen words are dropped. It can
  /// never intern, so it is safe on concurrent reader threads as long as
  /// writers are excluded while Extract runs.
  FeatureExtractor(FeatureModel model,
                   std::shared_ptr<const tax::ConceptTrie> concepts,
                   const FeatureVocabulary* vocabulary);

  /// As above, building a private trie from `taxonomy` for
  /// kBagOfConcepts (`taxonomy` must then be non-null; it is not retained).
  FeatureExtractor(FeatureModel model, const tax::Taxonomy* taxonomy,
                   FeatureVocabulary* vocabulary);
  FeatureExtractor(FeatureModel model, const tax::Taxonomy* taxonomy,
                   const FeatureVocabulary* vocabulary);

  FeatureExtractor(const FeatureExtractor&) = delete;
  FeatureExtractor& operator=(const FeatureExtractor&) = delete;

  /// Extracts the sorted unique feature ids of `document`.
  Result<std::vector<int64_t>> Extract(const std::string& document);

  /// Extract into `*features` (replacing its contents). Its capacity and
  /// the extractor's scratch are reused, so a warmed-up bag-of-concepts
  /// extraction allocates nothing.
  Status ExtractInto(const std::string& document,
                     std::vector<int64_t>* features);

  /// Runs only the preprocessing: mentions in document order, no
  /// vocabulary access. Use InternMentions (or Extract) to turn mentions
  /// into feature ids.
  Result<TermMentions> ExtractTerms(const std::string& document);

  /// Number of feature mentions (pre-dedup) in the last Extract call; the
  /// paper reports ~70 word vs ~26 concept mentions per text (§4.3).
  size_t last_mention_count() const { return last_mention_count_; }

  FeatureModel model() const { return model_; }

 private:
  FeatureExtractor(FeatureModel model,
                   std::shared_ptr<const tax::ConceptTrie> concepts,
                   const FeatureVocabulary* vocabulary,
                   FeatureVocabulary* mutable_vocabulary);

  /// ExtractTerms into `*mentions` (replacing its contents).
  void ExtractTermsInto(const std::string& document, TermMentions* mentions);

  FeatureModel model_;
  /// Read path; always set.
  const FeatureVocabulary* vocabulary_;
  /// Write path; null exactly for extractors over a frozen vocabulary.
  FeatureVocabulary* mutable_vocabulary_;
  /// Non-null exactly for kBagOfConcepts.
  std::shared_ptr<const tax::ConceptTrie> concepts_;
  text::Tokenizer tokenizer_;
  text::LanguageDetector detector_;
  text::Stemmer stemmer_;
  size_t last_mention_count_ = 0;
  /// Scratch reused from one document to the next.
  text::FoldedWords words_;
  std::vector<uint32_t> token_ids_;
  std::vector<tax::ConceptTrie::Mention> matches_;
  TermMentions mentions_;
};

/// Interns `mentions` into `vocabulary` (word models) or passes concept
/// ids through (bag-of-concepts) and returns sorted unique feature ids.
/// Interning follows document order, so resolving documents in corpus
/// order reproduces the exact vocabulary a sequential Extract pass would
/// have built.
std::vector<int64_t> InternMentions(FeatureModel model,
                                    const TermMentions& mentions,
                                    FeatureVocabulary* vocabulary);

}  // namespace qatk::kb

#endif  // QATK_KB_FEATURES_H_
