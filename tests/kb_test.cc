#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "datagen/world.h"
#include "feature_reference.h"
#include "kb/data_bundle.h"
#include "kb/features.h"
#include "kb/kb_store.h"
#include "kb/knowledge_base.h"
#include "server/demo_corpus.h"
#include "storage/database.h"
#include "taxonomy/concept_annotator.h"
#include "taxonomy/taxonomy.h"
#include "text/tokenizer.h"

namespace qatk::kb {
namespace {

using text::Language;

DataBundle MakeBundle(const std::string& ref, const std::string& part,
                      const std::string& code) {
  DataBundle bundle;
  bundle.reference_number = ref;
  bundle.article_code = "A1";
  bundle.part_id = part;
  bundle.error_code = code;
  bundle.responsibility_code = "R1";
  bundle.mechanic_report = "mechanic text for " + ref;
  bundle.supplier_report = "supplier text for " + ref;
  bundle.final_oem_report = "final text for " + ref;
  return bundle;
}

tax::Taxonomy SmallTaxonomy() {
  tax::Taxonomy taxonomy;
  tax::Concept fan;
  fan.id = 101;
  fan.category = tax::Category::kComponent;
  fan.label = "Fan";
  fan.synonyms[Language::kEnglish] = {"fan", "blower"};
  fan.synonyms[Language::kGerman] = {"Lüfter"};
  QATK_CHECK_OK(taxonomy.Add(std::move(fan)));
  tax::Concept noise;
  noise.id = 201;
  noise.category = tax::Category::kSymptom;
  noise.label = "Noise";
  noise.synonyms[Language::kEnglish] = {"noise", "humming sound"};
  QATK_CHECK_OK(taxonomy.Add(std::move(noise)));
  return taxonomy;
}

// ---------------------------------------------------------------------------
// DataBundle / Corpus
// ---------------------------------------------------------------------------

TEST(CorpusTest, SingletonAccounting) {
  Corpus corpus;
  corpus.bundles.push_back(MakeBundle("r1", "P1", "E1"));
  corpus.bundles.push_back(MakeBundle("r2", "P1", "E1"));
  corpus.bundles.push_back(MakeBundle("r3", "P1", "E2"));
  corpus.bundles.push_back(MakeBundle("r4", "P2", "E3"));
  corpus.bundles.push_back(MakeBundle("r5", "P2", "E3"));
  EXPECT_EQ(corpus.CountDistinctErrorCodes(), 3u);
  EXPECT_EQ(corpus.CountSingletonErrorCodes(), 1u);
  auto learnable = corpus.LearnableBundles();
  ASSERT_EQ(learnable.size(), 4u);
  for (const DataBundle* b : learnable) {
    EXPECT_NE(b->error_code, "E2");
  }
}

TEST(CorpusTest, EmptyCorpus) {
  Corpus corpus;
  EXPECT_EQ(corpus.CountDistinctErrorCodes(), 0u);
  EXPECT_EQ(corpus.CountSingletonErrorCodes(), 0u);
  EXPECT_TRUE(corpus.LearnableBundles().empty());
}

TEST(ComposeDocumentTest, MaskSelectsSources) {
  Corpus corpus;
  DataBundle bundle = MakeBundle("r1", "P1", "E1");
  bundle.initial_oem_report = "initial text";
  corpus.part_descriptions["P1"] = "part description";
  corpus.error_descriptions["E1"] = "error description";

  std::string all = ComposeDocument(bundle, kTrainSources, corpus);
  EXPECT_NE(all.find("mechanic text"), std::string::npos);
  EXPECT_NE(all.find("initial text"), std::string::npos);
  EXPECT_NE(all.find("supplier text"), std::string::npos);
  EXPECT_NE(all.find("final text"), std::string::npos);
  EXPECT_NE(all.find("part description"), std::string::npos);
  EXPECT_NE(all.find("error description"), std::string::npos);

  std::string test = ComposeDocument(bundle, kTestSources, corpus);
  EXPECT_NE(test.find("mechanic text"), std::string::npos);
  EXPECT_EQ(test.find("final text"), std::string::npos)
      << "final report must be unavailable at test time";
  EXPECT_EQ(test.find("error description"), std::string::npos);

  std::string mech = ComposeDocument(bundle, kMechanicOnly, corpus);
  EXPECT_NE(mech.find("mechanic text"), std::string::npos);
  EXPECT_EQ(mech.find("supplier text"), std::string::npos);
}

TEST(ComposeDocumentTest, MissingSourcesSkipped) {
  Corpus corpus;
  DataBundle bundle = MakeBundle("r1", "P1", "E1");
  bundle.initial_oem_report.clear();
  std::string doc = ComposeDocument(bundle, kTrainSources, corpus);
  EXPECT_FALSE(doc.empty());
  // No description catalogs registered: no crash, just skipped.
}

// ---------------------------------------------------------------------------
// FeatureVocabulary
// ---------------------------------------------------------------------------

TEST(FeatureVocabularyTest, InternIsIdempotent) {
  FeatureVocabulary vocabulary;
  int64_t a = vocabulary.Intern("defekt");
  int64_t b = vocabulary.Intern("kaputt");
  EXPECT_EQ(vocabulary.Intern("defekt"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(vocabulary.size(), 2u);
}

TEST(FeatureVocabularyTest, LookupDoesNotGrow) {
  FeatureVocabulary vocabulary;
  vocabulary.Intern("known");
  EXPECT_EQ(vocabulary.Lookup("known"), 0);
  EXPECT_EQ(vocabulary.Lookup("unknown"), -1);
  EXPECT_EQ(vocabulary.size(), 1u);
}

TEST(FeatureVocabularyTest, WordOfInverse) {
  FeatureVocabulary vocabulary;
  int64_t id = vocabulary.Intern("luefter");
  EXPECT_EQ(*vocabulary.WordOf(id), "luefter");
  EXPECT_TRUE(vocabulary.WordOf(999).status().IsKeyError());
  EXPECT_TRUE(vocabulary.WordOf(-1).status().IsKeyError());
}

TEST(FeatureVocabularyTest, RestoreRoundTrip) {
  FeatureVocabulary original;
  original.Intern("a");
  original.Intern("b");
  original.Intern("c");
  FeatureVocabulary restored;
  for (const auto& [word, id] : original.Entries()) {
    ASSERT_TRUE(restored.Restore(word, id).ok());
  }
  EXPECT_EQ(restored.Lookup("b"), original.Lookup("b"));
  EXPECT_TRUE(restored.Restore("b", 5).IsAlreadyExists());
  EXPECT_TRUE(restored.Restore("z", 7).IsInvalid()) << "non-dense id";
}

// ---------------------------------------------------------------------------
// FeatureExtractor
// ---------------------------------------------------------------------------

TEST(FeatureExtractorTest, BagOfWordsSortedUnique) {
  FeatureVocabulary vocabulary;
  FeatureExtractor extractor(FeatureModel::kBagOfWords, nullptr,
                             &vocabulary);
  auto features = extractor.Extract("the fan the fan broke");
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->size(), 3u);  // the, fan, broke.
  EXPECT_TRUE(std::is_sorted(features->begin(), features->end()));
  EXPECT_EQ(extractor.last_mention_count(), 5u);
}

TEST(FeatureExtractorTest, StopwordVariantDropsFunctionWords) {
  FeatureVocabulary vocabulary;
  FeatureExtractor extractor(FeatureModel::kBagOfWordsNoStop, nullptr,
                             &vocabulary);
  auto features = extractor.Extract("the fan is broken");
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->size(), 2u);  // fan, broken.
}

TEST(FeatureExtractorTest, BagOfConceptsUsesTaxonomy) {
  tax::Taxonomy taxonomy = SmallTaxonomy();
  FeatureVocabulary vocabulary;
  FeatureExtractor extractor(FeatureModel::kBagOfConcepts, &taxonomy,
                             &vocabulary);
  auto features = extractor.Extract("the blower makes a humming sound");
  ASSERT_TRUE(features.ok());
  ASSERT_EQ(features->size(), 2u);
  EXPECT_EQ((*features)[0], 101);
  EXPECT_EQ((*features)[1], 201);
}

TEST(FeatureExtractorTest, FrozenVocabularyDropsUnseenWords) {
  FeatureVocabulary vocabulary;
  {
    FeatureExtractor train(FeatureModel::kBagOfWords, nullptr, &vocabulary);
    ASSERT_TRUE(train.Extract("fan broken").ok());
  }
  const FeatureVocabulary& frozen = vocabulary;
  FeatureExtractor test(FeatureModel::kBagOfWords, nullptr, &frozen);
  auto features = test.Extract("fan totally novel words");
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->size(), 1u);  // Only "fan" is known.
  EXPECT_EQ(vocabulary.size(), 2u) << "frozen extraction must not intern";
}

TEST(FeatureExtractorTest, GermanFoldingUnifiesSpellings) {
  FeatureVocabulary vocabulary;
  FeatureExtractor extractor(FeatureModel::kBagOfWords, nullptr,
                             &vocabulary);
  auto a = extractor.Extract("Lüfter");
  auto b = extractor.Extract("LUEFTER");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(FeatureExtractorTest, EmptyDocument) {
  FeatureVocabulary vocabulary;
  FeatureExtractor extractor(FeatureModel::kBagOfWords, nullptr,
                             &vocabulary);
  auto features = extractor.Extract("");
  ASSERT_TRUE(features.ok());
  EXPECT_TRUE(features->empty());
}

// ---------------------------------------------------------------------------
// KnowledgeBase
// ---------------------------------------------------------------------------

TEST(KnowledgeBaseTest, IdenticalConfigurationsMerge) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2, 3});
  knowledge.AddInstance("P1", "E1", {1, 2, 3});
  knowledge.AddInstance("P1", "E1", {1, 2, 4});
  EXPECT_EQ(knowledge.num_nodes(), 2u);
  EXPECT_EQ(knowledge.num_instances(), 3u);
  EXPECT_EQ(knowledge.node(0).instance_count, 2u);
}

TEST(KnowledgeBaseTest, DifferentCodesSameFeaturesStayDistinct) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2});
  knowledge.AddInstance("P1", "E2", {1, 2});
  EXPECT_EQ(knowledge.num_nodes(), 2u);
}

TEST(KnowledgeBaseTest, CandidateSelectionFiltersByPartAndFeature) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2});
  knowledge.AddInstance("P1", "E2", {3, 4});
  knowledge.AddInstance("P2", "E3", {1, 2});

  auto candidates = knowledge.SelectCandidates("P1", {2, 9});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->error_code, "E1");

  EXPECT_TRUE(knowledge.SelectCandidates("P1", {99}).empty());
  EXPECT_EQ(knowledge.SelectCandidates("P1", {1, 3}).size(), 2u);
}

TEST(KnowledgeBaseTest, UnknownPartFallsBackToAllNodes) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1});
  knowledge.AddInstance("P2", "E2", {2});
  auto candidates = knowledge.SelectCandidates("P99", {1});
  EXPECT_EQ(candidates.size(), 2u) << "Fig. 5: unknown part -> all nodes";
}

TEST(KnowledgeBaseTest, CandidatesAreDeduplicated) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2, 3});
  // Probe shares three features with the single node; it must appear once.
  auto candidates = knowledge.SelectCandidates("P1", {1, 2, 3});
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(KnowledgeBaseTest, SeparatorBytesInIdsDoNotCollideConfigurations) {
  // The config key length-prefixes the free-form ids, so an id containing
  // the old '\x1f' separator can never shift the boundary between part id
  // and error code.
  KnowledgeBase knowledge;
  knowledge.AddInstance("a\x1f" "b", "c", {1});
  knowledge.AddInstance("a", "b\x1f" "c", {1});
  EXPECT_EQ(knowledge.num_nodes(), 2u);
  EXPECT_EQ(knowledge.NodesForPart("a").size(), 1u);
  EXPECT_EQ(knowledge.NodesForPart("a\x1f" "b").size(), 1u);
}

TEST(KnowledgeBaseTest, LengthPrefixedIdsWithDigitsStayDistinct) {
  // "1" + "2:..." style ids must not alias the length prefixes themselves.
  KnowledgeBase knowledge;
  knowledge.AddInstance("1", "23", {});
  knowledge.AddInstance("12", "3", {});
  knowledge.AddInstance("", "123", {});
  EXPECT_EQ(knowledge.num_nodes(), 3u);
}

TEST(KnowledgeBaseTest, ManySharedFeaturesStillDeduplicateLinearly) {
  // Heavy overlap: every node shares every probe feature, and each must
  // still appear once.
  KnowledgeBase knowledge;
  for (int n = 0; n < 5; ++n) {
    knowledge.AddInstance("P1", "E" + std::to_string(n), {1, 2, 3, 4});
  }
  auto candidates = knowledge.SelectCandidates("P1", {1, 2, 3, 4});
  ASSERT_EQ(candidates.size(), 5u);
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(candidates[n]->error_code, "E" + std::to_string(n))
        << "candidates must stay in knowledge-base insertion order";
  }
}

TEST(KnowledgeBaseTest, NodeSharingOnlyItsLastFeatureIsACandidate) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 4, 9});
  knowledge.AddInstance("P1", "E2", {1, 4, 8});
  // 9 is the node's last feature and the probe's last id.
  auto candidates = knowledge.SelectCandidates("P1", {2, 5, 9});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->error_code, "E1");
  // 9 is the node's last feature, with probe ids on both sides of it.
  candidates = knowledge.SelectCandidates("P1", {0, 9, 12});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->error_code, "E1");
}

TEST(KnowledgeBaseTest, ProbeAboveEveryNodeFeatureSelectsNothing) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2, 3});
  knowledge.AddInstance("P1", "E2", {4, 5});
  knowledge.AddInstance("P2", "E3", {10, 11});
  EXPECT_TRUE(knowledge.SelectCandidates("P1", {6, 10, 11}).empty());
}

TEST(KnowledgeBaseTest, NodeWithoutFeaturesIsNeverACandidate) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {});
  knowledge.AddInstance("P1", "E2", {3});
  auto candidates = knowledge.SelectCandidates("P1", {1, 3});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->error_code, "E2");
  EXPECT_TRUE(knowledge.SelectCandidates("P1", {}).empty());
}

TEST(KnowledgeBaseTest, CandidatesComeInAscendingNodeOrder) {
  // The part's nodes interleave with another part's, so their global ids
  // are not contiguous.
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E0", {5});
  knowledge.AddInstance("P2", "E1", {1});
  knowledge.AddInstance("P1", "E2", {1, 7});
  knowledge.AddInstance("P2", "E3", {5});
  knowledge.AddInstance("P1", "E4", {1, 5});
  knowledge.AddInstance("P1", "E5", {2});
  auto candidates = knowledge.SelectCandidates("P1", {1, 5});
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0], &knowledge.node(0));
  EXPECT_EQ(candidates[1], &knowledge.node(2));
  EXPECT_EQ(candidates[2], &knowledge.node(4));
}

TEST(KnowledgeBaseTest, NodesForPart) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1});
  knowledge.AddInstance("P1", "E2", {2});
  knowledge.AddInstance("P2", "E3", {3});
  EXPECT_EQ(knowledge.NodesForPart("P1").size(), 2u);
  EXPECT_TRUE(knowledge.NodesForPart("P9").empty());
  EXPECT_TRUE(knowledge.HasPart("P1"));
  EXPECT_FALSE(knowledge.HasPart("P9"));
}

// ---------------------------------------------------------------------------
// KbStore (QDB persistence)
// ---------------------------------------------------------------------------

class KbStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = db::Database::OpenInMemory(512);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    store_ = std::make_unique<KbStore>(db_.get(), "test");
  }

  std::unique_ptr<db::Database> db_;
  std::unique_ptr<KbStore> store_;
};

TEST_F(KbStoreTest, CorpusRoundTrip) {
  Corpus corpus;
  for (int i = 0; i < 20; ++i) {
    corpus.bundles.push_back(MakeBundle("REF" + std::to_string(i),
                                        "P" + std::to_string(i % 3),
                                        "E" + std::to_string(i % 5)));
  }
  corpus.bundles[3].initial_oem_report = "optional initial";
  corpus.part_descriptions["P0"] = "desc p0";
  corpus.error_descriptions["E1"] = "desc e1";
  ASSERT_TRUE(store_->SaveCorpus(corpus).ok());

  auto loaded = store_->LoadCorpus();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->bundles.size(), 20u);
  EXPECT_EQ(loaded->part_descriptions.at("P0"), "desc p0");
  EXPECT_EQ(loaded->error_descriptions.at("E1"), "desc e1");

  auto bundle = store_->FindBundle("REF3");
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->initial_oem_report, "optional initial");
  EXPECT_TRUE(store_->FindBundle("NOPE").status().IsKeyError());
}

TEST_F(KbStoreTest, KnowledgeBaseRoundTrip) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2, 3});
  knowledge.AddInstance("P1", "E1", {1, 2, 3});  // Merge.
  knowledge.AddInstance("P1", "E2", {3, 4});
  knowledge.AddInstance("P2", "E3", {5});
  FeatureVocabulary vocabulary;
  vocabulary.Intern("alpha");
  vocabulary.Intern("beta");
  ASSERT_TRUE(store_->SaveKnowledgeBase(knowledge, vocabulary).ok());

  auto loaded = store_->LoadKnowledgeBase();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), 3u);
  EXPECT_EQ(loaded->num_instances(), 4u);
  auto candidates = loaded->SelectCandidates("P1", {3});
  EXPECT_EQ(candidates.size(), 2u);

  auto vocab = store_->LoadVocabulary();
  ASSERT_TRUE(vocab.ok());
  EXPECT_EQ(vocab->Lookup("beta"), 1);
}

TEST_F(KbStoreTest, OnTheFlyCandidatesMatchInMemory) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2});
  knowledge.AddInstance("P1", "E2", {2, 3});
  knowledge.AddInstance("P1", "E3", {7});
  knowledge.AddInstance("P2", "E4", {1});
  FeatureVocabulary vocabulary;
  ASSERT_TRUE(store_->SaveKnowledgeBase(knowledge, vocabulary).ok());

  auto from_db = store_->SelectCandidatesFromDb("P1", {2, 9});
  ASSERT_TRUE(from_db.ok()) << from_db.status();
  auto in_memory = knowledge.SelectCandidates("P1", {2, 9});
  ASSERT_EQ(from_db->size(), in_memory.size());
  ASSERT_EQ(from_db->size(), 2u);
  for (size_t i = 0; i < from_db->size(); ++i) {
    EXPECT_EQ((*from_db)[i].error_code, in_memory[i]->error_code);
    EXPECT_EQ((*from_db)[i].features, in_memory[i]->features);
  }
}

TEST_F(KbStoreTest, RecommendationsRoundTrip) {
  ASSERT_TRUE(
      store_->SaveRecommendations("REF1", {{"E5", 0.9}, {"E2", 0.4}}).ok());
  ASSERT_TRUE(store_->SaveRecommendations("REF2", {{"E1", 1.0}}).ok());
  auto recs = store_->LoadRecommendations("REF1");
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].first, "E5");
  EXPECT_DOUBLE_EQ((*recs)[0].second, 0.9);
  EXPECT_EQ((*recs)[1].first, "E2");
}

// An extractor over a shared, prebuilt ConceptTrie must annotate exactly
// like one that builds its own trie from the taxonomy: same concept
// mentions in the same order, hence the same features, on every held-out
// bundle of the demo corpus, under both document compositions.
TEST(FeatureExtractorTest, SharedTrieMatchesTaxonomyBuiltTrie) {
  const datagen::DomainWorld world(server::DemoWorldConfig());
  const server::DemoSplit demo = server::GenerateDemoSplit(world);
  const std::shared_ptr<const tax::ConceptTrie> shared =
      BuildConcepts(FeatureModel::kBagOfConcepts, &world.taxonomy());
  ASSERT_NE(shared, nullptr);

  FeatureVocabulary own_vocabulary;
  FeatureVocabulary shared_vocabulary;
  FeatureExtractor own(FeatureModel::kBagOfConcepts, &world.taxonomy(),
                       &own_vocabulary);
  FeatureExtractor from_shared(FeatureModel::kBagOfConcepts, shared,
                               &shared_vocabulary);
  size_t with_concepts = 0;
  for (const DataBundle& bundle : demo.heldout) {
    for (unsigned sources : {kTestSources, kTrainSources}) {
      const std::string document =
          ComposeDocument(bundle, sources, demo.train);
      auto own_terms = own.ExtractTerms(document);
      auto shared_terms = from_shared.ExtractTerms(document);
      ASSERT_TRUE(own_terms.ok() && shared_terms.ok());
      ASSERT_EQ(shared_terms->concept_ids, own_terms->concept_ids)
          << bundle.reference_number;
      auto own_features = own.Extract(document);
      auto shared_features = from_shared.Extract(document);
      ASSERT_TRUE(own_features.ok() && shared_features.ok());
      ASSERT_EQ(*shared_features, *own_features) << bundle.reference_number;
      if (!own_features->empty()) ++with_concepts;
    }
  }
  EXPECT_GT(with_concepts, demo.heldout.size())
      << "the comparison saw implausibly few concept annotations";
}

// Word models need no trie: BuildConcepts returns null and does not count
// a build.
TEST(FeatureExtractorTest, WordModelsBuildNoTrie) {
  tax::Taxonomy taxonomy;
  const uint64_t builds = tax::ConceptTrie::BuildsForTest();
  EXPECT_EQ(BuildConcepts(FeatureModel::kBagOfWords, &taxonomy), nullptr);
  EXPECT_EQ(BuildConcepts(FeatureModel::kBagOfStems, nullptr), nullptr);
  EXPECT_EQ(tax::ConceptTrie::BuildsForTest(), builds);
  EXPECT_NE(BuildConcepts(FeatureModel::kBagOfConcepts, &taxonomy), nullptr);
  EXPECT_EQ(tax::ConceptTrie::BuildsForTest(), builds + 1);
}

// ---------------------------------------------------------------------------
// Direct extraction == the independent text reference
// ---------------------------------------------------------------------------

using reference::ExpectSameExtraction;
using reference::TextReference;

/// `base` plus, for every multiword synonym, a concept whose one synonym
/// is that synonym's last word. Generated taxonomies never nest one
/// synonym inside another, so only this makes the corpus exercise the
/// rule that the match scan resumes after the end of each match.
tax::Taxonomy WithNestedSynonyms(const tax::Taxonomy& base) {
  tax::Taxonomy nested = base;
  const std::vector<const tax::Concept*> all = base.All();
  int64_t next_id = all.empty() ? 1 : all.back()->id + 1;
  std::set<std::string> inner_words;
  for (const tax::Concept* outer : all) {
    for (const auto& [language, surfaces] : outer->synonyms) {
      for (const std::string& surface : surfaces) {
        std::vector<std::string> words =
            text::Tokenizer().WordsNormalized(surface);
        if (words.size() < 2 || !inner_words.insert(words.back()).second) {
          continue;
        }
        tax::Concept inner;
        inner.id = next_id++;
        inner.category = outer->category;
        inner.label = "Nested" + std::to_string(inner.id);
        inner.synonyms[language] = {words.back()};
        QATK_CHECK_OK(nested.Add(std::move(inner)));
      }
    }
  }
  return nested;
}

// FeatureExtractor runs each model's preprocessing in one direct pass; its
// reference (feature_reference.h) rebuilds each model on the naive
// tokenizer and fold of text_reference.h, which share no code with the
// pass, and detects the language on the raw text. Every demo train
// bundle goes through an interning extractor and every held-out bundle
// through a frozen one, each under both document compositions: mentions
// (in order), feature ids and mention counts must all agree, concept
// matches must never overlap, and the vocabularies the two paths build must
// be identical. Bag-of-concepts runs against the demo taxonomy and
// against a copy with nested synonyms.
class DirectExtractionTest : public ::testing::TestWithParam<FeatureModel> {
 protected:
  static void ExpectSameOnCorpus(
      FeatureModel model, std::shared_ptr<const tax::ConceptTrie> concepts,
      const server::DemoSplit& demo) {
    TextReference reference(model, concepts);
    FeatureVocabulary vocabulary;
    FeatureVocabulary reference_vocabulary;
    FeatureExtractor train(model, concepts, &vocabulary);
    size_t mentions = 0;
    for (const DataBundle& bundle : demo.train.bundles) {
      for (unsigned sources : {kTrainSources, kTestSources}) {
        ASSERT_NO_FATAL_FAILURE(ExpectSameExtraction(
            &train, &reference, &reference_vocabulary, /*frozen=*/false,
            ComposeDocument(bundle, sources, demo.train)))
            << bundle.reference_number;
        mentions += train.last_mention_count();
      }
    }
    EXPECT_EQ(vocabulary.Entries(), reference_vocabulary.Entries());
    EXPECT_GT(mentions, 10 * demo.train.bundles.size())
        << "the comparison saw implausibly few mentions";

    const FeatureVocabulary& frozen_vocabulary = vocabulary;
    FeatureExtractor serve(model, concepts, &frozen_vocabulary);
    for (const DataBundle& bundle : demo.heldout) {
      for (unsigned sources : {kTestSources, kTrainSources}) {
        ASSERT_NO_FATAL_FAILURE(ExpectSameExtraction(
            &serve, &reference, &reference_vocabulary, /*frozen=*/true,
            ComposeDocument(bundle, sources, demo.train)))
            << bundle.reference_number;
      }
    }
  }
};

TEST_P(DirectExtractionTest, MatchesCasPipelineOnDemoCorpus) {
  const FeatureModel model = GetParam();
  const datagen::DomainWorld world(server::DemoWorldConfig());
  const server::DemoSplit demo = server::GenerateDemoSplit(world);
  ASSERT_NO_FATAL_FAILURE(ExpectSameOnCorpus(
      model, BuildConcepts(model, &world.taxonomy()), demo));
  if (model == FeatureModel::kBagOfConcepts) {
    const tax::Taxonomy nested = WithNestedSynonyms(world.taxonomy());
    ASSERT_GT(nested.size(), world.taxonomy().size());
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameOnCorpus(model, BuildConcepts(model, &nested), demo));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DirectExtractionTest,
    ::testing::Values(FeatureModel::kBagOfWords,
                      FeatureModel::kBagOfWordsNoStop,
                      FeatureModel::kBagOfStems,
                      FeatureModel::kBagOfConcepts),
    [](const ::testing::TestParamInfo<FeatureModel>& info) {
      std::string name = FeatureModelToString(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The match rules, pinned on a known answer: "humming sound" is one
// multiword match, so the enclosed single-word concept "sound" is not
// emitted; the scan resumes after it and still finds "blower".
TEST(FeatureExtractorTest, EnclosedConceptIsNotEmitted) {
  tax::Taxonomy taxonomy = SmallTaxonomy();
  tax::Concept sound;
  sound.id = 301;
  sound.category = tax::Category::kSymptom;
  sound.label = "Sound";
  sound.synonyms[Language::kEnglish] = {"sound"};
  ASSERT_TRUE(taxonomy.Add(std::move(sound)).ok());
  FeatureVocabulary vocabulary;
  FeatureExtractor extractor(FeatureModel::kBagOfConcepts, &taxonomy,
                             &vocabulary);
  auto terms = extractor.ExtractTerms("humming sound, sound of the blower");
  ASSERT_TRUE(terms.ok());
  EXPECT_EQ(terms->concept_ids, (std::vector<int64_t>{201, 301, 101}));
}

}  // namespace
}  // namespace qatk::kb
