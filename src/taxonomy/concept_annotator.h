#ifndef QATK_TAXONOMY_CONCEPT_ANNOTATOR_H_
#define QATK_TAXONOMY_CONCEPT_ANNOTATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "cas/cas.h"
#include "taxonomy/concept_trie.h"
#include "taxonomy/taxonomy.h"

namespace qatk::tax {

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
