#include "taxonomy/concept_trie.h"

#include <atomic>
#include <map>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace qatk::tax {

namespace {

/// Normalizes one synonym surface form into folded word tokens.
std::vector<std::string> NormalizeSurface(const std::string& surface) {
  static const text::Tokenizer tokenizer;
  return tokenizer.WordsNormalized(surface);
}

/// Test-observable build count (independent of obs, which compiles out
/// under QATK_NO_METRICS).
std::atomic<uint64_t> g_trie_builds{0};

}  // namespace

std::shared_ptr<const ConceptTrie> ConceptTrie::Build(
    const Taxonomy& taxonomy) {
  return Build(taxonomy, Options());
}

std::shared_ptr<const ConceptTrie> ConceptTrie::Build(
    const Taxonomy& taxonomy, Options options) {
  g_trie_builds.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* const builds =
      obs::Registry::Global().GetCounter("qatk_taxonomy_trie_builds_total");
  builds->Add();

  std::shared_ptr<ConceptTrie> built(new ConceptTrie());
  TokenTrie& trie = built->trie_;
  // First pass: single-word synonym sets per concept, used for expansion.
  std::map<std::string, std::vector<std::string>> word_synonym_groups;
  if (options.expand_synonyms) {
    // Group single-token synonyms by concept: every member of a group can
    // substitute every other member inside a multiword synonym.
    for (const Concept* cpt : taxonomy.All()) {
      std::vector<std::string> words;
      for (const auto& [lang, surfaces] : cpt->synonyms) {
        for (const std::string& surface : surfaces) {
          std::vector<std::string> tokens = NormalizeSurface(surface);
          if (tokens.size() == 1) words.push_back(tokens[0]);
        }
      }
      for (const std::string& word : words) {
        for (const std::string& other : words) {
          if (word != other) word_synonym_groups[word].push_back(other);
        }
      }
    }
  }

  for (const Concept* cpt : taxonomy.All()) {
    built->categories_[cpt->id] = cpt->category;
    for (const auto& [lang, surfaces] : cpt->synonyms) {
      for (const std::string& surface : surfaces) {
        std::vector<std::string> tokens = NormalizeSurface(surface);
        if (tokens.empty()) continue;
        trie.Insert(tokens, cpt->id);
        if (!options.expand_synonyms || tokens.size() < 2) continue;
        // Expansion: substitute one position at a time by the synonyms of
        // that word, bounded per original synonym.
        size_t generated = 0;
        for (size_t i = 0;
             i < tokens.size() && generated < options.max_variants_per_synonym;
             ++i) {
          auto it = word_synonym_groups.find(tokens[i]);
          if (it == word_synonym_groups.end()) continue;
          for (const std::string& replacement : it->second) {
            if (generated >= options.max_variants_per_synonym) break;
            std::vector<std::string> variant = tokens;
            variant[i] = replacement;
            trie.Insert(variant, cpt->id);
            ++generated;
          }
        }
      }
    }
  }
  return built;
}

const Category* ConceptTrie::CategoryOf(int64_t concept_id) const {
  auto it = categories_.find(concept_id);
  return it == categories_.end() ? nullptr : &it->second;
}

void ConceptTrie::FindMentions(std::span<const std::string_view> words,
                               std::vector<Mention>* out) const {
  out->clear();
  size_t i = 0;
  while (i < words.size()) {
    std::optional<TokenTrie::Match> match = trie_.LongestMatch(words, i);
    if (!match) {
      ++i;
      continue;
    }
    out->push_back({i, match->length, match->concepts});
    i += match->length;
  }
}

uint64_t ConceptTrie::BuildsForTest() {
  return g_trie_builds.load(std::memory_order_relaxed);
}

}  // namespace qatk::tax
