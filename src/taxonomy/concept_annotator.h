#ifndef QATK_TAXONOMY_CONCEPT_ANNOTATOR_H_
#define QATK_TAXONOMY_CONCEPT_ANNOTATOR_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cas/cas.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/trie.h"

namespace qatk::tax {

/// \brief The compiled form of a taxonomy that the optimized concept
/// annotator of §4.5.3 matches against: the token trie of every synonym
/// (all languages, FoldGerman-normalized) plus the concept -> category map.
///
/// Immutable once built and shared through `shared_ptr<const ConceptTrie>`,
/// so any number of annotators — on any number of threads — match against
/// one build. The taxonomy is copied into normalized token sequences; a
/// later taxonomy mutation (Add, AddSynonym) is not seen by an
/// existing ConceptTrie, only by the next Build.
///
/// Synonym expansion: within multiword synonyms, component words that are
/// themselves single-word synonyms of another concept are replaced by that
/// concept's synonyms ("the concepts of the taxonomy [are expanded] with
/// synonyms of concept label substrings as found in the taxonomy itself"),
/// bounded to keep the trie small.
class ConceptTrie {
 public:
  struct Options {
    /// Enable the substring-synonym expansion described above.
    bool expand_synonyms = true;
    /// Cap on generated variants per original synonym (expansion blow-up
    /// guard).
    size_t max_variants_per_synonym = 8;
  };

  /// Builds the trie from `taxonomy` (default options). Every build counts
  /// once in `qatk_taxonomy_trie_builds_total` and in BuildsForTest().
  static std::shared_ptr<const ConceptTrie> Build(const Taxonomy& taxonomy);
  static std::shared_ptr<const ConceptTrie> Build(const Taxonomy& taxonomy,
                                                  Options options);

  const TokenTrie& trie() const { return trie_; }

  /// One concept match: the words [first, first + length) name every
  /// concept in `concepts` (a view into the trie, ascending).
  struct Mention {
    size_t first = 0;
    size_t length = 0;
    std::span<const int64_t> concepts;
  };

  /// The concept matches of a document's folded words, in order
  /// (replacing `*out`'s contents): left-bounded greedy longest match,
  /// resuming after the end of each match, so matches completely enclosed
  /// by another are eliminated.
  void FindMentions(std::span<const std::string_view> words,
                    std::vector<Mention>* out) const;

  /// Category of a concept of the built taxonomy, or nullptr.
  const Category* CategoryOf(int64_t concept_id) const;

  /// Total builds across the process. Test hook that, unlike the obs
  /// counter, survives QATK_NO_METRICS.
  static uint64_t BuildsForTest();

 private:
  ConceptTrie() = default;

  TokenTrie trie_;
  std::unordered_map<int64_t, Category> categories_;
};

/// \brief The optimized concept annotator of §4.5.3.
///
/// Improvements over the legacy component, as the paper describes them:
///  * taxonomy represented as a trie (ConceptTrie) → fast search and
///    retrieval;
///  * multilingual: synonyms of every language matched simultaneously on
///    FoldGerman-normalized tokens ("Lüfter" == "luefter" == "LUEFTER");
///  * correct multiword capture via left-bounded greedy longest match;
///  * concept matches completely enclosed by other matches are eliminated
///    (the scan resumes after the end of each emitted match);
///  * synonym expansion (see ConceptTrie).
///
/// The matching itself is ConceptTrie::FindMentions; this annotator is the
/// CAS adapter around it (kb::FeatureExtractor calls it directly).
///
/// Emits one kConcept annotation per (span, concept id), with int feature
/// kFeatureConceptId and string feature kFeatureCategory.
/// Requires a prior TokenizerAnnotator.
class TrieConceptAnnotator final : public cas::Annotator {
 public:
  using Options = ConceptTrie::Options;

  /// Builds a private trie from `taxonomy` (all languages). The taxonomy
  /// may be destroyed after construction.
  explicit TrieConceptAnnotator(const Taxonomy& taxonomy);
  TrieConceptAnnotator(const Taxonomy& taxonomy, Options options);

  /// Matches against an already built, possibly shared trie (non-null).
  explicit TrieConceptAnnotator(std::shared_ptr<const ConceptTrie> concepts);

  Status Process(cas::Cas* cas) override;

  size_t trie_nodes() const { return concepts_->trie().node_count(); }
  size_t trie_entries() const { return concepts_->trie().entry_count(); }

 private:
  std::shared_ptr<const ConceptTrie> concepts_;
};

/// \brief Faithful reimplementation of the deficient closed-source legacy
/// annotator the paper had to work around (§4.5.3): case-sensitive exact
/// single-token matching of each concept's primary German label only — no
/// synonym expansion, no normalization, no multiwords, no multilingual
/// matching — and a linear scan over the label list per token (slow and
/// memory-hungry).
///
/// Kept as the baseline for the annotator-coverage experiment (E6): the
/// paper reports it finds no concepts at all in 2,530 of 7,500 bundles,
/// while the trie annotator finds concepts in all of them.
class LegacyConceptAnnotator final : public cas::Annotator {
 public:
  explicit LegacyConceptAnnotator(const Taxonomy& taxonomy);

  Status Process(cas::Cas* cas) override;

 private:
  /// (exact surface form, concept id, category) triples, scanned linearly.
  struct Entry {
    std::string surface;
    int64_t concept_id;
    Category category;
  };
  std::vector<Entry> entries_;
};

}  // namespace qatk::tax

#endif  // QATK_TAXONOMY_CONCEPT_ANNOTATOR_H_
