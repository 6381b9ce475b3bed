#include "taxonomy/concept_trie.h"

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

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
  g_trie_builds.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* const builds =
      obs::Registry::Global().GetCounter("qatk_taxonomy_trie_builds_total");
  builds->Add();

  std::shared_ptr<ConceptTrie> built(new ConceptTrie());
  const std::vector<const Concept*> concepts = taxonomy.All();
  // Per concept: its synonym surfaces, normalized once, in language and
  // surface order (empty ones dropped).
  std::vector<std::vector<std::vector<std::string>>> normalized(
      concepts.size());
  for (size_t c = 0; c < concepts.size(); ++c) {
    for (const auto& [lang, surfaces] : concepts[c]->synonyms) {
      for (const std::string& surface : surfaces) {
        std::vector<std::string> tokens = NormalizeSurface(surface);
        if (!tokens.empty()) normalized[c].push_back(std::move(tokens));
      }
    }
  }

  // Expansion groups: every single-token synonym of a concept can
  // substitute every other one inside a multiword synonym. Only words of
  // multiword synonyms are ever looked up, so only they get a group.
  std::map<std::string, std::vector<std::string>> word_synonym_groups;
  std::set<std::string_view> substitutable;
  for (const auto& synonyms : normalized) {
    for (const std::vector<std::string>& tokens : synonyms) {
      if (tokens.size() < 2) continue;
      substitutable.insert(tokens.begin(), tokens.end());
    }
  }
  for (const auto& synonyms : normalized) {
    std::vector<std::string_view> words;
    for (const std::vector<std::string>& tokens : synonyms) {
      if (tokens.size() == 1) words.push_back(tokens[0]);
    }
    for (std::string_view word : words) {
      if (substitutable.count(word) == 0) continue;
      for (std::string_view other : words) {
        if (word != other) {
          word_synonym_groups[std::string(word)].emplace_back(other);
        }
      }
    }
  }

  TokenTrie::Builder trie;
  for (size_t c = 0; c < concepts.size(); ++c) {
    const Concept* cpt = concepts[c];
    built->categories_[cpt->id] = cpt->category;
    for (const std::vector<std::string>& tokens : normalized[c]) {
      trie.Add(tokens, cpt->id);
      if (tokens.size() < 2) continue;
      // Expansion: substitute one position at a time by the synonyms of
      // that word, bounded per original synonym.
      size_t generated = 0;
      for (size_t i = 0;
           i < tokens.size() && generated < kMaxVariantsPerSynonym; ++i) {
        auto it = word_synonym_groups.find(tokens[i]);
        if (it == word_synonym_groups.end()) continue;
        for (const std::string& replacement : it->second) {
          if (generated >= kMaxVariantsPerSynonym) break;
          std::vector<std::string> variant = tokens;
          variant[i] = replacement;
          trie.Add(variant, cpt->id);
          ++generated;
        }
      }
    }
  }
  built->trie_ = std::move(trie).Build();
  return built;
}

const Category* ConceptTrie::CategoryOf(int64_t concept_id) const {
  auto it = categories_.find(concept_id);
  return it == categories_.end() ? nullptr : &it->second;
}

void ConceptTrie::FindMentions(std::span<const std::string_view> words,
                               std::vector<uint32_t>* token_ids,
                               std::vector<Mention>* out) const {
  out->clear();
  token_ids->resize(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    (*token_ids)[i] = trie_.TokenId(words[i]);
  }
  size_t i = 0;
  while (i < words.size()) {
    std::optional<TokenTrie::Match> match = trie_.LongestMatch(*token_ids, i);
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
