// A naive bag-of-concepts matcher, written from ConceptTrie's documented
// build and match rules and sharing no code with the trie or with
// src/text/: the equivalence tests compare kb::FeatureExtractor's concept
// matches with it, so a matching bug in the trie shows up as a mismatch
// instead of being reproduced on both sides.
//
// The rules:
//  * every synonym surface of every concept, in every language, folds
//    into words (naive::FoldedWords); a non-empty word sequence names the
//    concept;
//  * expansion: within a concept, each single-word synonym can stand for
//    each other one. For a multiword synonym, positions are tried left to
//    right and each position's substitutes in that order (concepts in
//    taxonomy order, then languages, then surfaces), one position at a
//    time, until ConceptTrie::kMaxVariantsPerSynonym variants were
//    generated; every variant names the concept too;
//  * matching is left-bounded greedy: at each position the longest word
//    sequence that names a concept wins, its concepts ascending, and the
//    scan resumes after it; a position where none matches is skipped.
//
// Speed is no aim here: the entries live in a std::map keyed by word
// sequences, and a match tries every length, longest first.

#ifndef QATK_TESTS_CONCEPT_REFERENCE_H_
#define QATK_TESTS_CONCEPT_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "taxonomy/concept_trie.h"
#include "taxonomy/taxonomy.h"
#include "text_reference.h"

namespace qatk::naive {

class ConceptMatcher {
 public:
  /// One match: the words [first, first + length) name `concepts`.
  struct Match {
    size_t first = 0;
    size_t length = 0;
    std::vector<int64_t> concepts;  ///< Ascending.
  };

  explicit ConceptMatcher(const tax::Taxonomy& taxonomy) {
    constexpr size_t kCap = tax::ConceptTrie::kMaxVariantsPerSynonym;
    std::map<std::string, std::vector<std::string>> substitutes;
    for (const tax::Concept* cpt : taxonomy.All()) {
      std::vector<std::string> singles;
      for (const auto& [language, surfaces] : cpt->synonyms) {
        for (const std::string& surface : surfaces) {
          const std::vector<std::string> words = FoldedWords(surface);
          if (words.size() == 1) singles.push_back(words[0]);
        }
      }
      for (const std::string& word : singles) {
        for (const std::string& other : singles) {
          if (word != other) substitutes[word].push_back(other);
        }
      }
    }
    for (const tax::Concept* cpt : taxonomy.All()) {
      for (const auto& [language, surfaces] : cpt->synonyms) {
        for (const std::string& surface : surfaces) {
          const std::vector<std::string> words = FoldedWords(surface);
          if (words.empty()) continue;
          Add(words, cpt->id);
          if (words.size() < 2) continue;
          size_t generated = 0;
          bool capped = false;
          for (size_t i = 0; i < words.size(); ++i) {
            auto it = substitutes.find(words[i]);
            if (it == substitutes.end()) continue;
            for (const std::string& other : it->second) {
              if (generated == kCap) {
                capped = true;
                break;
              }
              std::vector<std::string> variant = words;
              variant[i] = other;
              Add(variant, cpt->id);
              ++generated;
            }
          }
          variants_ += generated;
          if (capped) ++capped_synonyms_;
        }
      }
    }
  }

  /// The matches of `words` (folded words of one document), in order.
  std::vector<Match> Matches(const std::vector<std::string>& words) const {
    std::vector<Match> matches;
    size_t i = 0;
    while (i < words.size()) {
      // Longer sequences than the longest entry name nothing.
      size_t length = std::min(longest_, words.size() - i);
      for (; length >= 1; --length) {
        auto it = entries_.find(std::vector<std::string>(
            words.begin() + i, words.begin() + i + length));
        if (it == entries_.end()) continue;
        matches.push_back(
            {i, length, {it->second.begin(), it->second.end()}});
        break;
      }
      i += length == 0 ? 1 : length;
    }
    return matches;
  }

  /// Distinct (word sequence, concept) entries, the trie's entry_count().
  size_t entry_count() const {
    size_t count = 0;
    for (const auto& [words, concepts] : entries_) count += concepts.size();
    return count;
  }

  /// Expansion variants generated, duplicates included.
  size_t variants() const { return variants_; }

  /// Multiword synonyms that had substitutes left when the cap stopped
  /// their expansion.
  size_t capped_synonyms() const { return capped_synonyms_; }

 private:
  void Add(const std::vector<std::string>& words, int64_t concept_id) {
    entries_[words].insert(concept_id);
    longest_ = std::max(longest_, words.size());
  }

  std::map<std::vector<std::string>, std::set<int64_t>> entries_;
  size_t longest_ = 0;
  size_t variants_ = 0;
  size_t capped_synonyms_ = 0;
};

}  // namespace qatk::naive

#endif  // QATK_TESTS_CONCEPT_REFERENCE_H_
