#include "taxonomy/concept_annotator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strutil.h"

namespace qatk::tax {

namespace {

using cas::types::kConcept;
using cas::types::kFeatureCategory;
using cas::types::kFeatureConceptId;
using cas::types::kFeatureKind;
using cas::types::kFeatureNorm;
using cas::types::kToken;

}  // namespace

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
