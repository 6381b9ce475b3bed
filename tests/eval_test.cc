#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "datagen/oem.h"
#include "datagen/world.h"
#include "eval/evaluator.h"
#include "eval/folds.h"
#include "eval/metrics.h"

namespace qatk::eval {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(AccuracyAccumulatorTest, CountsHitsAtThresholds) {
  AccuracyAccumulator acc({1, 5, 10});
  acc.Observe(1);   // Hits @1, @5, @10.
  acc.Observe(3);   // Hits @5, @10.
  acc.Observe(7);   // Hits @10.
  acc.Observe(0);   // Not found.
  acc.Observe(15);  // Beyond all ks.
  EXPECT_EQ(acc.total(), 5u);
  EXPECT_DOUBLE_EQ(acc.At(0), 1.0 / 5);
  EXPECT_DOUBLE_EQ(acc.At(1), 2.0 / 5);
  EXPECT_DOUBLE_EQ(acc.At(2), 3.0 / 5);
}

TEST(AccuracyAccumulatorTest, EmptyIsZero) {
  AccuracyAccumulator acc({1});
  EXPECT_DOUBLE_EQ(acc.At(0), 0.0);
}

TEST(AccuracyAccumulatorTest, MergeRequiresSameKs) {
  AccuracyAccumulator a({1, 5});
  AccuracyAccumulator b({1, 5});
  AccuracyAccumulator c({1, 10});
  a.Observe(1);
  b.Observe(0);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.total(), 2u);
  EXPECT_DOUBLE_EQ(a.At(0), 0.5);
  EXPECT_TRUE(a.Merge(c).IsInvalid());
}

TEST(AccuracyAccumulatorTest, MeanReciprocalRank) {
  AccuracyAccumulator acc({1});
  acc.Observe(1);   // 1.0
  acc.Observe(2);   // 0.5
  acc.Observe(4);   // 0.25
  acc.Observe(0);   // 0 (not found)
  EXPECT_DOUBLE_EQ(acc.MeanReciprocalRank(), (1.0 + 0.5 + 0.25) / 4.0);
  AccuracyAccumulator empty({1});
  EXPECT_DOUBLE_EQ(empty.MeanReciprocalRank(), 0.0);
}

TEST(FoldedAccuracyTest, MrrAveragedOverFolds) {
  FoldedAccuracy folded({1}, 2);
  folded.Observe(0, 1);  // Fold 0 MRR = 1.0.
  folded.Observe(1, 2);  // Fold 1 MRR = 0.5.
  EXPECT_DOUBLE_EQ(folded.MeanReciprocalRank(), 0.75);
}

TEST(FoldedAccuracyTest, AveragesAcrossFolds) {
  FoldedAccuracy folded({1}, 2);
  // Fold 0: 100% @1 of 2 observations; fold 1: 0% of 2.
  folded.Observe(0, 1);
  folded.Observe(0, 1);
  folded.Observe(1, 0);
  folded.Observe(1, 5);
  EXPECT_DOUBLE_EQ(folded.MeanAt(0), 0.5);
  EXPECT_DOUBLE_EQ(folded.MeanFoldSize(), 2.0);
}

TEST(FoldedAccuracyTest, EmptyFoldsIgnoredInMean) {
  FoldedAccuracy folded({1}, 3);
  folded.Observe(0, 1);  // Fold 0 only.
  EXPECT_DOUBLE_EQ(folded.MeanAt(0), 1.0);
}

// ---------------------------------------------------------------------------
// Stratified folds
// ---------------------------------------------------------------------------

TEST(StratifiedKFoldTest, EveryLabelSpreadAcrossFolds) {
  std::vector<std::string> labels;
  for (int i = 0; i < 50; ++i) labels.push_back("A");
  for (int i = 0; i < 25; ++i) labels.push_back("B");
  for (int i = 0; i < 5; ++i) labels.push_back("C");
  auto folds = StratifiedKFold(labels, 5, 7);
  ASSERT_TRUE(folds.ok());
  std::map<std::string, std::map<size_t, size_t>> per_label;
  for (size_t i = 0; i < labels.size(); ++i) {
    ++per_label[labels[i]][(*folds)[i]];
  }
  // 50 As -> exactly 10 per fold; 25 Bs -> exactly 5; 5 Cs -> 1 each.
  for (const auto& [fold, count] : per_label["A"]) EXPECT_EQ(count, 10u);
  for (const auto& [fold, count] : per_label["B"]) EXPECT_EQ(count, 5u);
  EXPECT_EQ(per_label["C"].size(), 5u);
}

TEST(StratifiedKFoldTest, TwoInstanceLabelLandsInTwoFolds) {
  std::vector<std::string> labels = {"X", "X", "pad1", "pad2", "pad3"};
  auto folds = StratifiedKFold(labels, 5, 11);
  ASSERT_TRUE(folds.ok());
  EXPECT_NE((*folds)[0], (*folds)[1])
      << "both instances in one fold would leave no training instance";
}

TEST(StratifiedKFoldTest, Deterministic) {
  std::vector<std::string> labels(100, "L");
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = "L" + std::to_string(i % 7);
  }
  auto a = StratifiedKFold(labels, 5, 42);
  auto b = StratifiedKFold(labels, 5, 42);
  auto c = StratifiedKFold(labels, 5, 43);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *c);
}

TEST(StratifiedKFoldTest, RejectsBadInput) {
  EXPECT_TRUE(StratifiedKFold({"a"}, 1, 0).status().IsInvalid());
  EXPECT_TRUE(StratifiedKFold({}, 5, 0).status().IsInvalid());
}

// ---------------------------------------------------------------------------
// End-to-end evaluator on a small world
// ---------------------------------------------------------------------------

class EvaluatorTest : public ::testing::Test {
 protected:
  static datagen::WorldConfig SmallWorld() {
    datagen::WorldConfig config;
    config.num_parts = 6;
    config.num_article_codes = 40;
    config.num_error_codes = 80;
    config.max_codes_largest_part = 25;
    config.mid_part_min_codes = 8;
    config.mid_part_max_codes = 20;
    config.small_parts = 2;
    config.num_components = 80;
    config.num_symptoms = 70;
    config.num_locations = 20;
    config.num_solutions = 20;
    config.components_per_part = 6;
    return config;
  }

  EvaluatorTest() : world_(SmallWorld()) {
    datagen::OemConfig oem;
    oem.num_bundles = 600;
    datagen::OemCorpusGenerator generator(&world_, oem);
    corpus_ = generator.Generate();
  }

  datagen::DomainWorld world_;
  kb::Corpus corpus_;
};

TEST_F(EvaluatorTest, ProducesAllRequestedCurves) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok()) << report.status();
  // 4 variants + frequency baseline + 2 candidate baselines.
  EXPECT_EQ(report->CurvesFor(kb::kTestSources).size(), 7u);
  EXPECT_GT(report->learnable_bundles, 300u);
  EXPECT_GT(report->distinct_learnable_codes, 20u);
}

TEST_F(EvaluatorTest, AccuraciesMonotonicInK) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok());
  for (const CurveResult& curve : report->curves) {
    for (size_t i = 1; i < curve.accuracy_at.size(); ++i) {
      EXPECT_GE(curve.accuracy_at[i] + 1e-12, curve.accuracy_at[i - 1])
          << curve.name << " must be monotone in k";
    }
    for (double a : curve.accuracy_at) {
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0);
    }
  }
}

TEST_F(EvaluatorTest, ClassifiersBeatCandidateBaseline) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok());
  auto bow = report->Find("bag-of-words + jaccard", kb::kTestSources);
  auto cand = report->Find("candidate-set baseline (bag-of-words)",
                           kb::kTestSources);
  ASSERT_TRUE(bow.ok());
  ASSERT_TRUE(cand.ok());
  EXPECT_GT((*bow)->accuracy_at[0], (*cand)->accuracy_at[0] + 0.1);
}

TEST_F(EvaluatorTest, MechanicOnlyWeakerThanAllReports) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  config.probe_masks = {kb::kTestSources, kb::kMechanicOnly};
  config.variants = {{kb::FeatureModel::kBagOfWords,
                      core::SimilarityMeasure::kJaccard}};
  config.include_candidate_baseline = false;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok());
  auto all = report->Find("bag-of-words + jaccard", kb::kTestSources);
  auto mech = report->Find("bag-of-words + jaccard", kb::kMechanicOnly);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(mech.ok());
  EXPECT_GT((*all)->accuracy_at[0], (*mech)->accuracy_at[0] + 0.15)
      << "experiment 2: mechanic reports alone are a poor entry point";
}

TEST_F(EvaluatorTest, DeterministicAcrossRuns) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  config.variants = {{kb::FeatureModel::kBagOfConcepts,
                      core::SimilarityMeasure::kJaccard}};
  config.include_candidate_baseline = false;
  config.include_frequency_baseline = false;
  auto a = evaluator.Run(config);
  auto b = evaluator.Run(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ca = a->Find("bag-of-concepts + jaccard", kb::kTestSources);
  auto cb = b->Find("bag-of-concepts + jaccard", kb::kTestSources);
  EXPECT_EQ((*ca)->accuracy_at, (*cb)->accuracy_at);
}

TEST_F(EvaluatorTest, MrrBracketsAccuracy) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  config.variants = {{kb::FeatureModel::kBagOfWords,
                      core::SimilarityMeasure::kJaccard}};
  config.include_candidate_baseline = false;
  config.include_frequency_baseline = false;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok());
  auto curve = report->Find("bag-of-words + jaccard", kb::kTestSources);
  ASSERT_TRUE(curve.ok());
  // MRR lies between A@1 and A@max-k by construction.
  EXPECT_GE((*curve)->mrr, (*curve)->accuracy_at.front() - 1e-9);
  EXPECT_LE((*curve)->mrr, (*curve)->accuracy_at.back() + 1e-9);
}

TEST_F(EvaluatorTest, FormatTableContainsVariants) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok());
  std::string table = report->FormatTable(kb::kTestSources);
  EXPECT_NE(table.find("bag-of-words + jaccard"), std::string::npos);
  EXPECT_NE(table.find("code-frequency baseline"), std::string::npos);
  EXPECT_NE(table.find("A@1"), std::string::npos);
  // Wall clock stays out of the result table, in its own block.
  EXPECT_EQ(table.find("us/bundle"), std::string::npos);
  std::string timings = report->FormatTimings(kb::kTestSources);
  EXPECT_NE(timings.find("us/bundle"), std::string::npos);
  EXPECT_NE(timings.find("bag-of-words + jaccard"), std::string::npos);
  EXPECT_EQ(timings.find("A@1"), std::string::npos);
}

TEST_F(EvaluatorTest, ParallelRunMatchesSequentialExactly) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  config.probe_masks = {kb::kTestSources, kb::kMechanicOnly};
  auto sequential = evaluator.Run(config);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  config.threads = 4;
  auto parallel = evaluator.Run(config);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ASSERT_EQ(sequential->curves.size(), parallel->curves.size());
  for (size_t i = 0; i < sequential->curves.size(); ++i) {
    const CurveResult& s = sequential->curves[i];
    const CurveResult& p = parallel->curves[i];
    EXPECT_EQ(s.name, p.name);
    EXPECT_EQ(s.probe_mask, p.probe_mask);
    EXPECT_EQ(s.accuracy_at, p.accuracy_at) << s.name;
    EXPECT_EQ(s.mrr, p.mrr) << s.name;
    EXPECT_EQ(s.evaluated, p.evaluated) << s.name;
  }
  EXPECT_EQ(sequential->learnable_bundles, parallel->learnable_bundles);
  EXPECT_EQ(sequential->mean_test_fold_size, parallel->mean_test_fold_size);
}

TEST(FoldedAccuracyTest, MergeIsExact) {
  FoldedAccuracy a({1, 5}, 2);
  a.Observe(0, 1);
  a.Observe(0, 3);
  FoldedAccuracy b({1, 5}, 2);
  b.Observe(1, 2);
  ASSERT_TRUE(a.Merge(b).ok());
  FoldedAccuracy sequential({1, 5}, 2);
  sequential.Observe(0, 1);
  sequential.Observe(0, 3);
  sequential.Observe(1, 2);
  EXPECT_EQ(a.MeanAt(0), sequential.MeanAt(0));
  EXPECT_EQ(a.MeanAt(1), sequential.MeanAt(1));
  EXPECT_EQ(a.MeanReciprocalRank(), sequential.MeanReciprocalRank());
  FoldedAccuracy wrong_ks({1}, 2);
  EXPECT_TRUE(a.Merge(wrong_ks).IsInvalid());
  FoldedAccuracy wrong_folds({1, 5}, 3);
  EXPECT_TRUE(a.Merge(wrong_folds).IsInvalid());
}

TEST(EvalReportTest, FormatTableSizesColumnFromLongestName) {
  EvalReport report;
  report.ks = {1};
  CurveResult short_curve;
  short_curve.name = "bag-of-words + jaccard";
  short_curve.probe_mask = kb::kTestSources;
  short_curve.accuracy_at = {0.5};
  CurveResult long_curve;
  long_curve.name =
      "candidate-set baseline (bag-of-words-nostop, extended variant)";
  long_curve.probe_mask = kb::kTestSources;
  long_curve.accuracy_at = {0.25};
  report.curves = {short_curve, long_curve};
  std::string table = report.FormatTable(kb::kTestSources);
  // The long name survives untruncated (the old code cut it at 38 chars,
  // losing the closing paren)...
  EXPECT_NE(table.find(long_curve.name), std::string::npos);
  // ...and both data rows still start their value columns at the same
  // offset: every row line is padded to the same name-column width.
  std::istringstream lines(table);
  std::string line;
  std::getline(lines, line);  // Experiment header.
  std::getline(lines, line);  // Column header.
  std::string row_short, row_long;
  std::getline(lines, row_short);
  std::getline(lines, row_long);
  EXPECT_EQ(row_short.find(" 0.500"), row_long.find(" 0.250"));
  // The timing block pads its name column the same way.
  report.curves[0].micros_per_bundle = 12.5;
  report.curves[1].micros_per_bundle = 3.5;
  std::istringstream timing_lines(report.FormatTimings(kb::kTestSources));
  std::getline(timing_lines, line);  // Block header.
  std::getline(timing_lines, line);  // Column header.
  std::getline(timing_lines, row_short);
  std::getline(timing_lines, row_long);
  EXPECT_EQ(row_short.find("12.5"), row_long.find("3.5"));
}

TEST_F(EvaluatorTest, FindUnknownCurveIsKeyError) {
  Evaluator evaluator(&world_.taxonomy(), &corpus_);
  EvalConfig config;
  config.folds = 3;
  auto report = evaluator.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Find("nope", kb::kTestSources).status().IsKeyError());
}

}  // namespace
}  // namespace qatk::eval
