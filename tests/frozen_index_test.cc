#include "kb/frozen_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/classifier.h"
#include "kb/knowledge_base.h"
#include "numbered.h"

namespace qatk::kb {
namespace {

constexpr core::SimilarityMeasure kAllMeasures[] = {
    core::SimilarityMeasure::kJaccard,
    core::SimilarityMeasure::kOverlap,
    core::SimilarityMeasure::kDice,
    core::SimilarityMeasure::kCosine,
};

/// Sorted, deduplicated feature set of size <= max_size over [0, domain).
std::vector<int64_t> RandomFeatureSet(Rng* rng, size_t max_size,
                                      int64_t domain) {
  std::set<int64_t> unique;
  const size_t size = rng->NextBounded(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    unique.insert(static_cast<int64_t>(rng->NextBounded(domain)));
  }
  return {unique.begin(), unique.end()};
}

/// Asserts the indexed path reproduces the brute-force path bit for bit:
/// same codes, same order, same score doubles, same candidate count.
void ExpectEquivalent(const KnowledgeBase& knowledge, const FrozenIndex& index,
                      FrozenIndex::Scratch* scratch,
                      const std::string& part_id,
                      const std::vector<int64_t>& features, size_t max_nodes) {
  for (core::SimilarityMeasure measure : kAllMeasures) {
    core::RankedKnnClassifier classifier({measure, max_nodes});
    std::vector<core::ScoredCode> brute =
        classifier.Classify(knowledge, part_id, features);
    size_t num_candidates = 0;
    std::vector<core::ScoredCode> indexed = classifier.Classify(
        index, part_id, features, scratch, &num_candidates);
    ASSERT_EQ(knowledge.SelectCandidates(part_id, features).size(),
              num_candidates)
        << "candidate-count mismatch, part=" << part_id;
    ASSERT_EQ(brute.size(), indexed.size())
        << "rank-length mismatch, measure="
        << core::SimilarityMeasureToString(measure) << " part=" << part_id;
    for (size_t i = 0; i < brute.size(); ++i) {
      ASSERT_EQ(brute[i].error_code, indexed[i].error_code)
          << "code mismatch at rank " << i << ", measure="
          << core::SimilarityMeasureToString(measure);
      // Bit-identical, not approximately equal: both paths must perform
      // the same double operations on the same (shared, |A|, |B|) counts.
      ASSERT_EQ(brute[i].score, indexed[i].score)
          << "score mismatch at rank " << i << ", measure="
          << core::SimilarityMeasureToString(measure);
    }
  }
}

TEST(FrozenIndexTest, EmptyKnowledgeBase) {
  KnowledgeBase knowledge;
  FrozenIndex index = FrozenIndex::Build(knowledge);
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_EQ(index.num_postings(), 0u);
  FrozenIndex::Scratch scratch;
  ExpectEquivalent(knowledge, index, &scratch, "P0", {1, 2, 3}, 25);
  ExpectEquivalent(knowledge, index, &scratch, "P0", {}, 25);
}

TEST(FrozenIndexTest, SnapshotsNodesAndArena) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P0", "E0", {3, 7, 9});
  knowledge.AddInstance("P0", "E1", {7});
  knowledge.AddInstance("P1", "E0", {});
  FrozenIndex index = FrozenIndex::Build(knowledge);
  ASSERT_EQ(index.num_nodes(), 3u);
  EXPECT_EQ(index.num_parts(), 2u);
  EXPECT_EQ(index.num_postings(), 4u);
  EXPECT_EQ(index.node_feature_count(0), 3u);
  EXPECT_EQ(index.node_feature_count(2), 0u);
  EXPECT_EQ(index.node_error_code(0), "E0");
  EXPECT_EQ(index.node_error_code(1), "E1");
  // Equal codes intern to equal ids across nodes.
  EXPECT_EQ(index.node_code_id(0), index.node_code_id(2));
  EXPECT_EQ(index.node_feature_count(1), 1u);
  EXPECT_TRUE(index.HasPart("P1"));
  EXPECT_FALSE(index.HasPart("P2"));
  // P0's segment posts features 3, 7, 9 -> {0}, {0, 1}, {0}; P1's node has
  // no features, so its segment is empty but present.
  const FrozenIndex::Segment* p0 = index.FindSegment("P0");
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->feature_ids, (std::vector<int64_t>{3, 7, 9}));
  EXPECT_EQ(p0->offsets, (std::vector<uint32_t>{0, 1, 3, 4}));
  EXPECT_EQ(p0->postings, (std::vector<uint32_t>{0, 0, 1, 0}));
  ASSERT_NE(index.FindSegment("P1"), nullptr);
  EXPECT_TRUE(index.FindSegment("P1")->feature_ids.empty());
  EXPECT_EQ(index.FindSegment("P2"), nullptr);
  // Flat arrays: P0's segment (3 rows = 24 B, 4 offsets = 16 B, 4 postings
  // = 16 B), P1's (1 offset = 4 B), 3 code ids and 3 node sizes (24 B).
  EXPECT_EQ(index.memory_bytes(), 84u);
}

TEST(FrozenIndexTest, KnownPartWithoutSharedFeatureIsEmptyNotAllNodes) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P0", "E0", {1, 2});
  knowledge.AddInstance("P1", "E1", {5});
  FrozenIndex index = FrozenIndex::Build(knowledge);
  FrozenIndex::Scratch scratch;
  // P0 is known but shares nothing with {5}: empty candidate set, not the
  // unknown-part all-nodes fallback.
  EXPECT_TRUE(index.AccumulateShared("P0", {5}, &scratch));
  EXPECT_TRUE(scratch.touched.empty());
  ExpectEquivalent(knowledge, index, &scratch, "P0", {5}, 25);
}

TEST(FrozenIndexTest, PartWhoseOnlyNodeHasNoFeaturesStaysKnown) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P0", "E0", {});
  knowledge.AddInstance("P1", "E1", {1});
  FrozenIndex index = FrozenIndex::Build(knowledge);
  FrozenIndex::Scratch scratch;
  EXPECT_TRUE(index.AccumulateShared("P0", {1}, &scratch));
  EXPECT_TRUE(scratch.touched.empty());
  ExpectEquivalent(knowledge, index, &scratch, "P0", {1}, 25);
}

TEST(FrozenIndexTest, UnknownPartRanksEveryNodeIncludingZeroScores) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P0", "E0", {1});
  knowledge.AddInstance("P1", "E1", {2});
  knowledge.AddInstance("P2", "E2", {3});
  FrozenIndex index = FrozenIndex::Build(knowledge);
  FrozenIndex::Scratch scratch;
  core::RankedKnnClassifier classifier(
      {core::SimilarityMeasure::kJaccard, 25});
  std::vector<core::ScoredCode> ranked =
      classifier.Classify(index, "GHOST", {1}, &scratch);
  // The matching node wins; the zero-score nodes still fill the tail in
  // arrival order.
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].error_code, "E0");
  EXPECT_GT(ranked[0].score, 0.0);
  EXPECT_EQ(ranked[1].error_code, "E1");
  EXPECT_EQ(ranked[1].score, 0.0);
  EXPECT_EQ(ranked[2].error_code, "E2");
  ExpectEquivalent(knowledge, index, &scratch, "GHOST", {1}, 25);
}

TEST(FrozenIndexTest, ScratchSurvivesReuseAcrossIndexesOfDifferentSizes) {
  FrozenIndex::Scratch scratch;
  KnowledgeBase big;
  for (int i = 0; i < 40; ++i) {
    big.AddInstance("P0", Numbered("E", i % 5),
                    {i % 7, 10 + i % 3, 20 + i});
  }
  FrozenIndex big_index = FrozenIndex::Build(big);
  ExpectEquivalent(big, big_index, &scratch, "P0", {0, 10, 21}, 25);

  KnowledgeBase small;
  small.AddInstance("P0", "E0", {1, 2});
  FrozenIndex small_index = FrozenIndex::Build(small);
  ExpectEquivalent(small, small_index, &scratch, "P0", {2}, 25);

  // Back to the larger index: the scratch re-sizes and re-stamps cleanly.
  ExpectEquivalent(big, big_index, &scratch, "P0", {10, 12}, 25);
}

TEST(FrozenIndexTest, RepeatedQueriesDoNotLeakStateAcrossEpochs) {
  KnowledgeBase knowledge;
  knowledge.AddInstance("P0", "E0", {1, 2, 3});
  knowledge.AddInstance("P0", "E1", {3, 4});
  FrozenIndex index = FrozenIndex::Build(knowledge);
  FrozenIndex::Scratch scratch;
  for (int i = 0; i < 50; ++i) {
    ExpectEquivalent(knowledge, index, &scratch, "P0", {1, 3}, 25);
    ExpectEquivalent(knowledge, index, &scratch, "P0", {4}, 25);
    ExpectEquivalent(knowledge, index, &scratch, "P0", {}, 25);
  }
}

/// The tentpole guarantee: over randomized corpora, the frozen-index
/// rankings are byte-identical to the brute-force RankedKnnClassifier for
/// all four similarity measures — including unknown-part probes, empty
/// feature sets, singleton nodes, and merged duplicate configurations.
TEST(FrozenIndexEquivalenceTest, RandomizedCorporaMatchBruteForceExactly) {
  Rng rng(0x20160318C5FULL);
  FrozenIndex::Scratch scratch;  // Deliberately shared across all corpora.
  const size_t kCorpora = 120;
  for (size_t c = 0; c < kCorpora; ++c) {
    const size_t num_parts = 1 + rng.NextBounded(6);
    const size_t num_codes = 1 + rng.NextBounded(10);
    const int64_t feature_domain = 1 + static_cast<int64_t>(
        rng.NextBounded(40));
    const size_t num_instances = rng.NextBounded(60);  // 0 = empty corpus.
    KnowledgeBase knowledge;
    for (size_t i = 0; i < num_instances; ++i) {
      knowledge.AddInstance(
          Numbered("P", rng.NextBounded(num_parts)),
          Numbered("E", rng.NextBounded(num_codes)),
          RandomFeatureSet(&rng, 12, feature_domain));
    }
    FrozenIndex index = FrozenIndex::Build(knowledge);
    ASSERT_EQ(index.num_nodes(), knowledge.num_nodes());

    for (size_t p = 0; p < 20; ++p) {
      // 1 in 4 probes targets an unknown part (all-nodes fallback); 1 in 5
      // carries an empty feature set.
      std::string part_id =
          rng.NextBernoulli(0.25)
              ? Numbered("GHOST", rng.NextBounded(3))
              : Numbered("P", rng.NextBounded(num_parts));
      std::vector<int64_t> features =
          p % 5 == 0 ? std::vector<int64_t>{}
                     : RandomFeatureSet(&rng, 10, feature_domain);
      const size_t max_nodes = rng.NextBernoulli(0.5) ? 25 : 3;
      ExpectEquivalent(knowledge, index, &scratch, part_id, features,
                       max_nodes);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "corpus " << c << " probe " << p << " diverged";
      }
    }
  }
}

/// A corpus of singleton nodes (every configuration unique, many parts
/// with exactly one node) — the paper's 718-singleton long tail.
TEST(FrozenIndexEquivalenceTest, SingletonNodesMatchBruteForce) {
  Rng rng(0xBADC0DE5EEDULL);
  KnowledgeBase knowledge;
  for (int i = 0; i < 30; ++i) {
    knowledge.AddInstance(Numbered("P", i), Numbered("E", i),
                          {i, i + 100});
  }
  FrozenIndex index = FrozenIndex::Build(knowledge);
  FrozenIndex::Scratch scratch;
  for (int i = 0; i < 30; ++i) {
    ExpectEquivalent(knowledge, index, &scratch, Numbered("P", i),
                     {i, i + 100}, 25);
  }
  ExpectEquivalent(knowledge, index, &scratch, "GHOST", {5, 105}, 25);
}

}  // namespace
}  // namespace qatk::kb
