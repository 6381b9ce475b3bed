#include "taxonomy/concept_annotator.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/strutil.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace qatk::tax {

namespace {

using cas::types::kConcept;
using cas::types::kFeatureCategory;
using cas::types::kFeatureConceptId;
using cas::types::kFeatureKind;
using cas::types::kFeatureNorm;
using cas::types::kToken;

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

TrieConceptAnnotator::TrieConceptAnnotator(const Taxonomy& taxonomy)
    : TrieConceptAnnotator(ConceptTrie::Build(taxonomy)) {}

TrieConceptAnnotator::TrieConceptAnnotator(const Taxonomy& taxonomy,
                                           Options options)
    : TrieConceptAnnotator(ConceptTrie::Build(taxonomy, options)) {}

TrieConceptAnnotator::TrieConceptAnnotator(
    std::shared_ptr<const ConceptTrie> concepts)
    : concepts_(std::move(concepts)) {
  QATK_CHECK(concepts_ != nullptr) << "TrieConceptAnnotator needs a trie";
}

Status TrieConceptAnnotator::Process(cas::Cas* cas) {
  // Collect word tokens (skipping punctuation) with their CAS spans.
  std::vector<const cas::Annotation*> word_tokens;
  std::vector<std::string_view> words;
  for (const cas::Annotation* token : cas->Select(kToken)) {
    if (token->GetString(kFeatureKind) != "word") continue;
    word_tokens.push_back(token);
    words.push_back(token->GetString(kFeatureNorm));
  }
  std::vector<ConceptTrie::Mention> mentions;
  concepts_->FindMentions(words, &mentions);
  for (const ConceptTrie::Mention& mention : mentions) {
    for (int64_t concept_id : mention.concepts) {
      cas::Annotation a;
      a.type = kConcept;
      a.begin = word_tokens[mention.first]->begin;
      a.end = word_tokens[mention.first + mention.length - 1]->end;
      a.int_features[kFeatureConceptId] = concept_id;
      if (const Category* category = concepts_->CategoryOf(concept_id)) {
        a.string_features[kFeatureCategory] = CategoryToString(*category);
      }
      QATK_RETURN_NOT_OK(cas->Add(std::move(a)));
    }
  }
  return Status::OK();
}

LegacyConceptAnnotator::LegacyConceptAnnotator(const Taxonomy& taxonomy) {
  for (const Concept* cpt : taxonomy.All()) {
    auto de = cpt->synonyms.find(text::Language::kGerman);
    if (de == cpt->synonyms.end() || de->second.empty()) continue;
    // The legacy component only knows each concept's first two German
    // labels and only handles single words — no full synonym expansion, no
    // multiwords, no other languages (§4.5.3: "these libraries do not
    // entirely meet the requirements of the present use case").
    size_t known = std::min<size_t>(2, de->second.size());
    for (size_t i = 0; i < known; ++i) {
      const std::string& surface = de->second[i];
      if (surface.find(' ') != std::string::npos) continue;
      entries_.push_back({surface, cpt->id, cpt->category});
    }
  }
}

Status LegacyConceptAnnotator::Process(cas::Cas* cas) {
  for (const cas::Annotation* token : cas->Select(kToken)) {
    if (token->GetString(kFeatureKind) != "word") continue;
    std::string_view raw = cas->CoveredText(*token);
    // Deliberately O(|entries|) per token and case-sensitive: this mirrors
    // the legacy component's behaviour and cost profile.
    for (const Entry& entry : entries_) {
      if (raw != entry.surface) continue;
      cas::Annotation a;
      a.type = kConcept;
      a.begin = token->begin;
      a.end = token->end;
      a.int_features[kFeatureConceptId] = entry.concept_id;
      a.string_features[kFeatureCategory] = CategoryToString(entry.category);
      QATK_RETURN_NOT_OK(cas->Add(std::move(a)));
    }
  }
  return Status::OK();
}

}  // namespace qatk::tax
