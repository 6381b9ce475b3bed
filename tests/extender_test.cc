#include <gtest/gtest.h>

#include "cas/annotators.h"
#include "numbered.h"
#include "taxonomy/concept_annotator.h"
#include "taxonomy/extender.h"
#include "taxonomy/taxonomy.h"

namespace qatk::tax {
namespace {

using text::Language;

Taxonomy BaseTaxonomy() {
  Taxonomy taxonomy;
  Concept root;
  root.id = 2;
  root.category = Category::kSymptom;
  root.label = "Symptom";
  QATK_CHECK_OK(taxonomy.Add(std::move(root)));
  Concept fan;
  fan.id = 101;
  fan.category = Category::kComponent;
  fan.label = "Fan";
  fan.parent_id = 2;
  fan.synonyms[Language::kEnglish] = {"fan"};
  fan.synonyms[Language::kGerman] = {"Lüfter"};
  QATK_CHECK_OK(taxonomy.Add(std::move(fan)));
  return taxonomy;
}

TaxonomyExtender::Options FastOptions() {
  TaxonomyExtender::Options options;
  options.min_frequency = 3;
  options.min_concentration = 0.6;
  return options;
}

TEST(TaxonomyExtenderTest, MinesConcentratedUnknownTokens) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  // "durchgeschmort" concentrates on E1 -> proposal.
  for (int i = 0; i < 5; ++i) {
    extender.AddDocument("fan kontakt durchgeschmort", "E1");
  }
  // "geprueft" spreads over many codes -> filler, no proposal.
  for (int i = 0; i < 5; ++i) {
    extender.AddDocument("teil geprueft", Numbered("E", i));
  }
  auto proposals = extender.Propose();
  ASSERT_FALSE(proposals.empty());
  bool has_schmort = false;
  for (const SynonymProposal& proposal : proposals) {
    EXPECT_NE(proposal.surface, "geprueft")
        << "evenly spread filler must not be proposed";
    EXPECT_NE(proposal.surface, "fan") << "known tokens must not be proposed";
    if (proposal.surface == "durchgeschmort") {
      has_schmort = true;
      EXPECT_EQ(proposal.frequency, 5u);
      EXPECT_DOUBLE_EQ(proposal.concentration, 1.0);
      ASSERT_FALSE(proposal.top_codes.empty());
      EXPECT_EQ(proposal.top_codes[0], "E1");
    }
  }
  EXPECT_TRUE(has_schmort);
}

TEST(TaxonomyExtenderTest, KnownTokensIncludeAllSynonymLanguages) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  for (int i = 0; i < 5; ++i) {
    // "luefter" is the folded form of the German synonym -> known.
    extender.AddDocument("Lüfter luefter LUEFTER", "E1");
  }
  EXPECT_TRUE(extender.Propose().empty());
}

TEST(TaxonomyExtenderTest, FrequencyAndLengthThresholds) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  extender.AddDocument("seldomword", "E1");  // Frequency 1 < 3.
  for (int i = 0; i < 10; ++i) {
    extender.AddDocument("abc 4711 12345", "E1");  // Short + numeric.
  }
  EXPECT_TRUE(extender.Propose().empty());
}

TEST(TaxonomyExtenderTest, StopwordsNeverProposed) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  for (int i = 0; i < 10; ++i) {
    extender.AddDocument("nicht fuer ueber durchgebrannt", "E1");
  }
  for (const SynonymProposal& proposal : extender.Propose()) {
    EXPECT_EQ(proposal.surface, "durchgebrannt");
  }
}

TEST(TaxonomyExtenderTest, ProposalsRankedByConcentrationThenFrequency) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  for (int i = 0; i < 8; ++i) extender.AddDocument("pureterm", "E1");
  for (int i = 0; i < 6; ++i) extender.AddDocument("mixedterm", "E1");
  for (int i = 0; i < 4; ++i) extender.AddDocument("mixedterm", "E2");
  auto proposals = extender.Propose();
  ASSERT_EQ(proposals.size(), 2u);
  EXPECT_EQ(proposals[0].surface, "pureterm");
  EXPECT_EQ(proposals[1].surface, "mixedterm");
  EXPECT_DOUBLE_EQ(proposals[1].concentration, 0.6);
}

TEST(TaxonomyExtenderTest, ApplyAddsMatchableConcepts) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  for (int i = 0; i < 5; ++i) {
    extender.AddDocument("fan durchgeschmort", "E1");
  }
  auto proposals = extender.Propose();
  ASSERT_FALSE(proposals.empty());
  size_t before = taxonomy.size();
  auto added = extender.Apply(proposals, &taxonomy, 50000, 2);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, proposals.size());
  EXPECT_EQ(taxonomy.size(), before + *added);
  // The new concept is annotatable.
  TrieConceptAnnotator annotator(taxonomy);
  cas::Cas c("kontakt durchgeschmort");
  cas::TokenizerAnnotator tokenizer;
  QATK_CHECK_OK(tokenizer.Process(&c));
  QATK_CHECK_OK(annotator.Process(&c));
  EXPECT_EQ(c.CountType(cas::types::kConcept), 1u);
}

TEST(TaxonomyExtenderTest, ApplySkipsOccupiedIds) {
  Taxonomy taxonomy = BaseTaxonomy();
  TaxonomyExtender extender(taxonomy, FastOptions());
  for (int i = 0; i < 5; ++i) extender.AddDocument("durchgeschmort", "E1");
  auto proposals = extender.Propose();
  // id 101 is taken; Apply must skip to a free id.
  auto added = extender.Apply(proposals, &taxonomy, 101, 2);
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_TRUE(taxonomy.Contains(102));
}

}  // namespace
}  // namespace qatk::tax
