#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/baselines.h"
#include "core/classifier.h"
#include "core/similarity.h"
#include "numbered.h"

namespace qatk::core {
namespace {

using V = std::vector<int64_t>;

// ---------------------------------------------------------------------------
// Similarity measures
// ---------------------------------------------------------------------------

TEST(SimilarityTest, IntersectionSize) {
  EXPECT_EQ(IntersectionSize({1, 2, 3}, {2, 3, 4}), 2u);
  EXPECT_EQ(IntersectionSize({}, {1}), 0u);
  EXPECT_EQ(IntersectionSize({1, 5, 9}, {2, 6, 10}), 0u);
  EXPECT_EQ(IntersectionSize({1, 2}, {1, 2}), 2u);
}

TEST(SimilarityTest, JaccardPaperDefinition) {
  // |A∩B| / |A∪B|
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kJaccard, {1, 2, 3},
                              {2, 3, 4}),
                   2.0 / 4.0);
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kJaccard, {1}, {1}), 1.0);
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kJaccard, {1}, {2}), 0.0);
}

TEST(SimilarityTest, OverlapPaperDefinition) {
  // |A∩B| / min(|A|, |B|)
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kOverlap, {1, 2, 3},
                              {2, 3}),
                   2.0 / 2.0);
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kOverlap, {1, 2, 3, 4},
                              {3, 4, 5}),
                   2.0 / 3.0);
}

TEST(SimilarityTest, DiceAndCosine) {
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kDice, {1, 2}, {2, 3}),
                   2.0 * 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(Similarity(SimilarityMeasure::kCosine, {1, 2}, {2, 3}),
                   1.0 / 2.0);
}

TEST(SimilarityTest, EmptySetsAreZero) {
  for (auto measure :
       {SimilarityMeasure::kJaccard, SimilarityMeasure::kOverlap,
        SimilarityMeasure::kDice, SimilarityMeasure::kCosine}) {
    EXPECT_EQ(Similarity(measure, {}, {}), 0.0);
    EXPECT_EQ(Similarity(measure, {1}, {}), 0.0);
    EXPECT_EQ(Similarity(measure, {}, {1}), 0.0);
  }
}

TEST(SimilarityTest, NameRoundTrip) {
  for (auto measure :
       {SimilarityMeasure::kJaccard, SimilarityMeasure::kOverlap,
        SimilarityMeasure::kDice, SimilarityMeasure::kCosine}) {
    auto back = SimilarityMeasureFromString(SimilarityMeasureToString(measure));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, measure);
  }
  EXPECT_TRUE(SimilarityMeasureFromString("nope").status().IsInvalid());
}

// Property sweep: all measures are symmetric, bounded to [0,1], equal to 1
// on identical non-empty sets, and 0 on disjoint sets.
class SimilarityPropertyTest
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(SimilarityPropertyTest, SymmetricBoundedNormalized) {
  SimilarityMeasure measure = GetParam();
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    V a;
    V b;
    size_t na = rng.NextBounded(30);
    size_t nb = rng.NextBounded(30);
    for (size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<int64_t>(rng.NextBounded(50)));
    }
    for (size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<int64_t>(rng.NextBounded(50)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());

    double ab = Similarity(measure, a, b);
    double ba = Similarity(measure, b, a);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    if (!a.empty()) {
      EXPECT_DOUBLE_EQ(Similarity(measure, a, a), 1.0);
    }
    if (IntersectionSize(a, b) == 0) {
      EXPECT_DOUBLE_EQ(ab, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, SimilarityPropertyTest,
                         ::testing::Values(SimilarityMeasure::kJaccard,
                                           SimilarityMeasure::kOverlap,
                                           SimilarityMeasure::kDice,
                                           SimilarityMeasure::kCosine));

// ---------------------------------------------------------------------------
// RankedKnnClassifier
// ---------------------------------------------------------------------------

kb::KnowledgeBase ThreeCodeKb() {
  kb::KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2, 3, 4});
  knowledge.AddInstance("P1", "E2", {3, 4, 5, 6});
  knowledge.AddInstance("P1", "E3", {7, 8});
  return knowledge;
}

TEST(RankedKnnTest, RanksBySimilarity) {
  kb::KnowledgeBase knowledge = ThreeCodeKb();
  RankedKnnClassifier classifier;
  auto ranked = classifier.Classify(knowledge, "P1", {1, 2, 3});
  ASSERT_EQ(ranked.size(), 2u);  // E3 shares nothing -> not a candidate.
  EXPECT_EQ(ranked[0].error_code, "E1");
  EXPECT_GT(ranked[0].score, ranked[1].score);
  EXPECT_EQ(ranked[1].error_code, "E2");
}

TEST(RankedKnnTest, OutputsRankedListNotMajorityVote) {
  // Three E2 nodes vs one perfectly matching E1 node: majority vote would
  // say E2; the ranked list must put E1 first (§4.3's adaptation).
  kb::KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2, 3});
  knowledge.AddInstance("P1", "E2", {1, 9, 10});
  knowledge.AddInstance("P1", "E2", {2, 11, 12});
  knowledge.AddInstance("P1", "E2", {3, 13, 14});
  RankedKnnClassifier classifier;
  auto ranked = classifier.Classify(knowledge, "P1", {1, 2, 3});
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].error_code, "E1");
}

TEST(RankedKnnTest, DistinctCodesKeepBestNodeScore) {
  kb::KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1, 2});      // J({1,2},{1,2}) = 1.
  knowledge.AddInstance("P1", "E1", {1, 5, 6, 7});  // Worse E1 node.
  RankedKnnClassifier classifier;
  auto ranked = classifier.Classify(knowledge, "P1", {1, 2});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
}

TEST(RankedKnnTest, MaxNodesCutoffLimitsCodes) {
  kb::KnowledgeBase knowledge;
  for (int i = 0; i < 50; ++i) {
    knowledge.AddInstance("P1", Numbered("E", i),
                          {1, 100 + i, 200 + i});
  }
  RankedKnnClassifier narrow({SimilarityMeasure::kJaccard, 5});
  auto ranked = narrow.Classify(knowledge, "P1", {1});
  EXPECT_EQ(ranked.size(), 5u) << "only the 5 best nodes are retrieved";
  RankedKnnClassifier wide({SimilarityMeasure::kJaccard, 25});
  EXPECT_EQ(wide.Classify(knowledge, "P1", {1}).size(), 25u);
}

TEST(RankedKnnTest, DeterministicTieBreaking) {
  kb::KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "Ea", {1, 10});
  knowledge.AddInstance("P1", "Eb", {1, 11});
  knowledge.AddInstance("P1", "Ec", {1, 12});
  RankedKnnClassifier classifier;
  auto first = classifier.Classify(knowledge, "P1", {1});
  auto second = classifier.Classify(knowledge, "P1", {1});
  EXPECT_EQ(first, second);
  // Arrival order breaks exact ties.
  EXPECT_EQ(first[0].error_code, "Ea");
}

TEST(RankedKnnTest, EmptyProbeYieldsNothing) {
  kb::KnowledgeBase knowledge = ThreeCodeKb();
  RankedKnnClassifier classifier;
  EXPECT_TRUE(classifier.Classify(knowledge, "P1", {}).empty());
}

TEST(RankedKnnTest, UnknownPartUsesAllNodes) {
  kb::KnowledgeBase knowledge = ThreeCodeKb();
  RankedKnnClassifier classifier;
  auto ranked = classifier.Classify(knowledge, "P-unknown", {7, 8});
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].error_code, "E3");
}

TEST(RankOfTest, OneBasedRankZeroWhenAbsent) {
  std::vector<ScoredCode> ranked = {{"E2", 0.9}, {"E7", 0.5}, {"E1", 0.1}};
  EXPECT_EQ(RankOf(ranked, "E2"), 1u);
  EXPECT_EQ(RankOf(ranked, "E1"), 3u);
  EXPECT_EQ(RankOf(ranked, "E9"), 0u);
  EXPECT_EQ(RankOf({}, "E1"), 0u);
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

TEST(CodeFrequencyBaselineTest, SortsByFrequencyPerPart) {
  CodeFrequencyBaseline baseline;
  for (int i = 0; i < 5; ++i) baseline.AddObservation("P1", "E1");
  for (int i = 0; i < 9; ++i) baseline.AddObservation("P1", "E2");
  baseline.AddObservation("P1", "E3");
  baseline.AddObservation("P2", "E9");

  auto ranked = baseline.Rank("P1");
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].error_code, "E2");
  EXPECT_DOUBLE_EQ(ranked[0].score, 9.0);
  EXPECT_EQ(ranked[1].error_code, "E1");
  EXPECT_EQ(ranked[2].error_code, "E3");
  EXPECT_TRUE(baseline.Rank("P9").empty());
}

TEST(CodeFrequencyBaselineTest, TiesBreakLexicographically) {
  CodeFrequencyBaseline baseline;
  baseline.AddObservation("P1", "Eb");
  baseline.AddObservation("P1", "Ea");
  auto ranked = baseline.Rank("P1");
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].error_code, "Ea");
}

TEST(CandidateSetBaselineTest, OrderIsArbitraryButDeterministic) {
  kb::KnowledgeBase knowledge;
  for (int i = 0; i < 20; ++i) {
    knowledge.AddInstance("P1", Numbered("E", i), {1, 100 + i});
  }
  CandidateSetBaseline baseline;
  auto first = baseline.Rank(knowledge, "P1", {1});
  auto second = baseline.Rank(knowledge, "P1", {1});
  EXPECT_EQ(first.size(), 20u);
  EXPECT_EQ(first, second);
  for (const ScoredCode& code : first) {
    EXPECT_EQ(code.score, 0.0) << "unsorted baseline carries no scores";
  }
  // The order must not be insertion order (that would correlate with the
  // training distribution).
  bool is_insertion_order = true;
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i].error_code != Numbered("E", i)) {
      is_insertion_order = false;
      break;
    }
  }
  EXPECT_FALSE(is_insertion_order);
}

TEST(CandidateSetBaselineTest, OnlyMatchingCandidates) {
  kb::KnowledgeBase knowledge;
  knowledge.AddInstance("P1", "E1", {1});
  knowledge.AddInstance("P1", "E2", {2});
  CandidateSetBaseline baseline;
  auto ranked = baseline.Rank(knowledge, "P1", {2});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].error_code, "E2");
}

}  // namespace
}  // namespace qatk::core
