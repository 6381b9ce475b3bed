#ifndef QATK_TAXONOMY_CONCEPT_TRIE_H_
#define QATK_TAXONOMY_CONCEPT_TRIE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

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

}  // namespace qatk::tax

#endif  // QATK_TAXONOMY_CONCEPT_TRIE_H_
