#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "datagen/nhtsa.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "quest/comparison.h"
#include "quest/recommendation_service.h"
#include "taxonomy/concept_annotator.h"

namespace qatk::quest {
namespace {

datagen::WorldConfig SmallWorld() {
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

class RecommendationServiceTest : public ::testing::Test {
 protected:
  RecommendationServiceTest() : world_(SmallWorld()) {
    datagen::OemConfig oem;
    oem.num_bundles = 600;
    datagen::OemCorpusGenerator generator(&world_, oem);
    corpus_ = generator.Generate();
  }

  datagen::DomainWorld world_;
  kb::Corpus corpus_;
};

TEST_F(RecommendationServiceTest, UntrainedServiceRefuses) {
  RecommendationService service(&world_.taxonomy(), {});
  EXPECT_FALSE(service.trained());
  EXPECT_TRUE(
      service.Recommend(corpus_.bundles[0]).status().IsInvalid());
}

TEST_F(RecommendationServiceTest, TrainOnceOnly) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  EXPECT_TRUE(service.trained());
  EXPECT_TRUE(service.Train(corpus_).IsInvalid());
}

TEST_F(RecommendationServiceTest, TopTenCutoffAndOrdering) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  // Pick a bundle from the largest part (many codes -> truncation).
  const kb::DataBundle* probe = nullptr;
  for (const kb::DataBundle& bundle : corpus_.bundles) {
    if (bundle.part_id == "P01") {
      probe = &bundle;
      break;
    }
  }
  ASSERT_NE(probe, nullptr);
  auto recommendation = service.Recommend(*probe);
  ASSERT_TRUE(recommendation.ok()) << recommendation.status();
  EXPECT_LE(recommendation->top.size(), 10u);
  for (size_t i = 1; i < recommendation->top.size(); ++i) {
    EXPECT_GE(recommendation->top[i - 1].score,
              recommendation->top[i].score);
  }
}

TEST_F(RecommendationServiceTest, RecommendationQualityOnTrainingData) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  size_t hits = 0;
  size_t total = 0;
  for (size_t i = 0; i < corpus_.bundles.size(); i += 7) {
    auto recommendation = service.Recommend(corpus_.bundles[i]);
    ASSERT_TRUE(recommendation.ok());
    ++total;
    for (const core::ScoredCode& scored : recommendation->top) {
      if (scored.error_code == corpus_.bundles[i].error_code) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.6)
      << "top-10 should usually contain the assigned code";
}

TEST_F(RecommendationServiceTest, FullListFallbackSortedByFrequency) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  auto list = service.FullListForPart("P01");
  ASSERT_GT(list.size(), 5u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].score, list[i].score);
  }
  EXPECT_TRUE(service.FullListForPart("P99").empty());
}

TEST_F(RecommendationServiceTest, DefineErrorCode) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  size_t before = service.FullListForPart("P01").size();
  ASSERT_TRUE(
      service.DefineErrorCode("P01", "E_NEW", "a brand new failure mode")
          .ok());
  auto list = service.FullListForPart("P01");
  EXPECT_EQ(list.size(), before + 1);
  EXPECT_EQ(list.back().error_code, "E_NEW");
  EXPECT_EQ(*service.DescribeCode("E_NEW"), "a brand new failure mode");
  EXPECT_TRUE(
      service.DefineErrorCode("P01", "E_NEW", "again").IsAlreadyExists());
}

TEST_F(RecommendationServiceTest, FullListDedupsManualCodeAfterConfirm) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  ASSERT_TRUE(
      service.DefineErrorCode("P01", "E_MANUAL", "manually defined").ok());

  // Confirm an assignment to the manually defined code: it now has a
  // training-set frequency and must not appear twice in the full list.
  kb::DataBundle bundle;
  bundle.reference_number = "CONF1";
  bundle.part_id = "P01";
  bundle.mechanic_report = "some failure description";
  ASSERT_TRUE(service.ConfirmAssignment(bundle, "E_MANUAL").ok());

  size_t occurrences = 0;
  double score = -1;
  for (const core::ScoredCode& scored : service.FullListForPart("P01")) {
    if (scored.error_code == "E_MANUAL") {
      ++occurrences;
      score = scored.score;
    }
  }
  EXPECT_EQ(occurrences, 1u) << "manual code must not be listed twice";
  EXPECT_GT(score, 0.0) << "the frequency-ranked entry wins over the "
                           "score-0 manual entry";
}

TEST_F(RecommendationServiceTest, DefineErrorCodeKeepsFirstDescription) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  ASSERT_TRUE(
      service.DefineErrorCode("P01", "E_SHARED", "first description").ok());

  // A different part registering the same code with a different
  // description must not silently clobber the global description.
  EXPECT_TRUE(service.DefineErrorCode("P02", "E_SHARED", "other description")
                  .IsAlreadyExists());
  EXPECT_EQ(*service.DescribeCode("E_SHARED"), "first description");

  // Registering it for another part with the same description is fine.
  ASSERT_TRUE(
      service.DefineErrorCode("P02", "E_SHARED", "first description").ok());
  bool in_p02 = false;
  for (const core::ScoredCode& scored : service.FullListForPart("P02")) {
    if (scored.error_code == "E_SHARED") in_p02 = true;
  }
  EXPECT_TRUE(in_p02);
}

TEST_F(RecommendationServiceTest, ConcurrentServingSmoke) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());

  constexpr size_t kReaders = 4;
  constexpr size_t kIterations = 40;
  const uint64_t trie_builds = tax::ConceptTrie::BuildsForTest();
  std::atomic<size_t> failures{0};
  std::atomic<size_t> recommendations{0};

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (size_t i = 0; i < kIterations; ++i) {
        const kb::DataBundle& bundle =
            corpus_.bundles[(r * kIterations + i * 13) %
                            corpus_.bundles.size()];
        auto recommendation = service.Recommend(bundle);
        if (!recommendation.ok()) {
          failures.fetch_add(1);
          continue;
        }
        recommendations.fetch_add(1);
        service.FullListForPart(bundle.part_id);
        service.DescribeCode(bundle.error_code).status();
      }
    });
  }
  threads.emplace_back([&] {
    for (size_t i = 0; i < kIterations; ++i) {
      kb::DataBundle novel;
      novel.reference_number = "CONC" + std::to_string(i);
      novel.part_id = corpus_.bundles[i % corpus_.bundles.size()].part_id;
      novel.mechanic_report = "interleaved confirm number " +
                              std::to_string(i);
      if (!service.ConfirmAssignment(novel, "E_CONC").ok()) {
        failures.fetch_add(1);
      }
      if (i % 8 == 0) {
        // Distinct code per definition; duplicates would be AlreadyExists.
        Status st = service.DefineErrorCode(
            novel.part_id, "E_DEF" + std::to_string(i), "defined under load");
        if (!st.ok() && !st.IsAlreadyExists()) failures.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(recommendations.load(), kReaders * kIterations);
  // The writer's confirmations all landed.
  bool found = false;
  for (const core::ScoredCode& scored :
       service.FullListForPart(corpus_.bundles[0].part_id)) {
    if (scored.error_code == "E_CONC") found = true;
  }
  EXPECT_TRUE(found);
  // Confirms, definitions and reader refreshes all share the trained
  // snapshot's concept trie.
  EXPECT_EQ(tax::ConceptTrie::BuildsForTest(), trie_builds);
}

TEST_F(RecommendationServiceTest, DescribeUnknownCode) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  EXPECT_TRUE(service.DescribeCode("E_MISSING").status().IsKeyError());
}

TEST_F(RecommendationServiceTest, ForeignTextClassification) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  datagen::NhtsaConfig config;
  config.num_complaints = 60;
  datagen::NhtsaComplaintGenerator generator(&world_, config);
  size_t non_empty = 0;
  for (const datagen::NhtsaComplaint& complaint : generator.Generate()) {
    auto recommendation =
        service.RecommendForText(complaint.part_id, complaint.narrative);
    ASSERT_TRUE(recommendation.ok());
    if (!recommendation->top.empty()) ++non_empty;
  }
  EXPECT_GT(non_empty, 45u)
      << "the concept model must transfer to the foreign text type";
}

TEST_F(RecommendationServiceTest, ConfirmAssignmentLearnsOnline) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  size_t nodes_before = service.knowledge().num_nodes();
  size_t instances_before = service.knowledge().num_instances();

  kb::DataBundle novel;
  novel.reference_number = "NEW1";
  novel.part_id = corpus_.bundles[0].part_id;
  novel.mechanic_report = "entirely new failure pattern";
  novel.supplier_report = "previously unseen root cause";
  ASSERT_TRUE(service.ConfirmAssignment(novel, "E_FRESH").ok());
  EXPECT_EQ(service.knowledge().num_instances(), instances_before + 1);
  EXPECT_GE(service.knowledge().num_nodes(), nodes_before);
  // The confirmed code now appears in the part's full list.
  bool found = false;
  for (const auto& scored : service.FullListForPart(novel.part_id)) {
    if (scored.error_code == "E_FRESH") found = true;
  }
  EXPECT_TRUE(found);
}

/// The per-part sharing contract of a confirm: Train builds one index
/// segment per part, a confirm builds at most one (its own part's), and
/// every other segment and knowledge-base part of the successor is the
/// predecessor's, by pointer. No confirm rebuilds the concept trie.
TEST_F(RecommendationServiceTest, ConfirmRebuildsOnlyItsOwnPart) {
  RecommendationService service(&world_.taxonomy(), {});
  const uint64_t builds_before_train = kb::FrozenIndex::SegmentBuildsForTest();
  ASSERT_TRUE(service.Train(corpus_).ok());
  auto trained = service.Snapshot();
  ASSERT_GT(trained->knowledge.num_parts(), 2u);
  EXPECT_EQ(kb::FrozenIndex::SegmentBuildsForTest() - builds_before_train,
            trained->knowledge.num_parts());
  const uint64_t trie_builds = tax::ConceptTrie::BuildsForTest();

  // Every part of `after` except `confirmed` is shared with `before`.
  auto expect_shared_except = [](const RecommendationService::TrainedState&
                                     before,
                                 const RecommendationService::TrainedState&
                                     after,
                                 const std::string& confirmed) {
    for (size_t p = 0; p < before.knowledge.num_parts(); ++p) {
      const std::string& part_id = before.knowledge.part(p).part_id;
      const bool shared = part_id != confirmed;
      EXPECT_EQ(shared, before.index.FindSegment(part_id) ==
                            after.index.FindSegment(part_id))
          << "segment of " << part_id;
      EXPECT_EQ(shared, &before.knowledge.part(p) == &after.knowledge.part(p))
          << "knowledge part " << part_id;
    }
  };

  // A confirm into a known part: one segment build, all others shared.
  kb::DataBundle novel;
  novel.reference_number = "SHARE1";
  novel.part_id = corpus_.bundles[0].part_id;
  novel.mechanic_report = corpus_.bundles[0].mechanic_report;
  uint64_t builds = kb::FrozenIndex::SegmentBuildsForTest();
  ASSERT_TRUE(service.ConfirmAssignment(novel, "E_SHARE").ok());
  EXPECT_LE(kb::FrozenIndex::SegmentBuildsForTest() - builds, 1u);
  auto confirmed = service.Snapshot();
  expect_shared_except(*trained, *confirmed, novel.part_id);

  // A confirm into a new part adds one segment and shares every old one.
  kb::DataBundle fresh = novel;
  fresh.reference_number = "SHARE2";
  fresh.part_id = "P_BRAND_NEW";
  builds = kb::FrozenIndex::SegmentBuildsForTest();
  ASSERT_TRUE(service.ConfirmAssignment(fresh, "E_SHARE").ok());
  EXPECT_EQ(kb::FrozenIndex::SegmentBuildsForTest() - builds, 1u);
  auto extended = service.Snapshot();
  EXPECT_EQ(extended->index.num_parts(), confirmed->index.num_parts() + 1);
  EXPECT_TRUE(extended->index.HasPart(fresh.part_id));
  expect_shared_except(*confirmed, *extended, fresh.part_id);

  EXPECT_EQ(tax::ConceptTrie::BuildsForTest(), trie_builds);
  // The predecessors still answer exactly as before their successors
  // existed: shared pieces were never written through.
  EXPECT_FALSE(trained->index.HasPart(fresh.part_id));
  EXPECT_EQ(trained->index.num_nodes(), trained->knowledge.num_nodes());
  EXPECT_EQ(confirmed->index.num_nodes(), confirmed->knowledge.num_nodes());
}

/// A rejected definition publishes nothing: no new generation, so no
/// reader has to refresh its snapshot.
TEST_F(RecommendationServiceTest, RejectedDefineErrorCodePublishesNothing) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  ASSERT_TRUE(service.DefineErrorCode("P01", "E_ONCE", "first").ok());
  ASSERT_TRUE(service.Recommend(corpus_.bundles[0]).ok());
  const uint64_t generation = service.Snapshot()->generation;
  const uint64_t refreshes = RecommendationService::ReaderRefreshesForTest();

  EXPECT_TRUE(
      service.DefineErrorCode("P01", "E_ONCE", "first").IsAlreadyExists());
  EXPECT_TRUE(
      service.DefineErrorCode("P02", "E_ONCE", "other").IsAlreadyExists());
  const std::string ranked = service.FullListForPart("P01")[0].error_code;
  EXPECT_TRUE(service.DefineErrorCode("P01", ranked, "x").IsAlreadyExists());

  EXPECT_EQ(service.Snapshot()->generation, generation);
  ASSERT_TRUE(service.Recommend(corpus_.bundles[0]).ok());
  EXPECT_EQ(RecommendationService::ReaderRefreshesForTest(), refreshes);
}

TEST_F(RecommendationServiceTest, ConfirmAssignmentValidates) {
  RecommendationService untrained(&world_.taxonomy(), {});
  kb::DataBundle bundle;
  EXPECT_TRUE(untrained.ConfirmAssignment(bundle, "E1").IsInvalid());
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_).ok());
  EXPECT_TRUE(service.ConfirmAssignment(bundle, "").IsInvalid());
}

TEST_F(RecommendationServiceTest, FailedTrainLeavesServiceUntouched) {
  // A fault halfway through the corpus aborts training; because the model
  // is built aside and swapped only on success, the service must come out
  // exactly as it went in: untrained, refusing to serve, and trainable.
  FaultInjector fault;
  fault.AddFault({"train.bundle",
                  static_cast<uint32_t>(corpus_.bundles.size() / 2),
                  FaultKind::kPermanent, 0.0});
  RecommendationService::Options options;
  options.fault = &fault;
  RecommendationService service(&world_.taxonomy(), options);
  Status st = service.Train(corpus_);
  ASSERT_TRUE(st.IsIOError()) << st;
  EXPECT_FALSE(service.trained());
  EXPECT_TRUE(service.Recommend(corpus_.bundles[0]).status().IsInvalid());
  EXPECT_TRUE(service.FullListForPart(corpus_.bundles[0].part_id).empty());
  // The injected fault was one-shot; the retry trains from scratch with no
  // leftovers from the aborted pass.
  ASSERT_TRUE(service.Train(corpus_).ok());
  EXPECT_TRUE(service.trained());
  EXPECT_TRUE(service.Recommend(corpus_.bundles[0]).ok());
}

TEST_F(RecommendationServiceTest, FailedRetrainKeepsServing) {
  FaultInjector fault;
  RecommendationService::Options options;
  options.fault = &fault;
  RecommendationService service(&world_.taxonomy(), options);
  ASSERT_TRUE(service.Train(corpus_).ok());
  // Train-once contract is unchanged; Retrain is the explicit swap path.
  EXPECT_TRUE(service.Train(corpus_).IsInvalid());

  fault.AddFault({"train.bundle", 3, FaultKind::kPermanent, 0.0});
  Status st = service.Retrain(corpus_);
  ASSERT_TRUE(st.IsIOError()) << st;
  // The old model is still live and serving.
  EXPECT_TRUE(service.trained());
  auto recommendation = service.Recommend(corpus_.bundles[0]);
  ASSERT_TRUE(recommendation.ok()) << recommendation.status();
  EXPECT_FALSE(recommendation->top.empty());
  // A clean Retrain succeeds and keeps serving.
  ASSERT_TRUE(service.Retrain(corpus_).ok());
  EXPECT_TRUE(service.Recommend(corpus_.bundles[0]).ok());
}

// ---------------------------------------------------------------------------
// Distribution comparison (Fig. 14)
// ---------------------------------------------------------------------------

TEST(DistributionTest, TopNPlusOther) {
  std::map<std::string, size_t> counts = {
      {"X2", 47}, {"B15", 19}, {"CR2", 18}, {"D1", 10}, {"D2", 6}};
  Distribution dist = Distribution::FromCounts("OEM", counts, 3);
  ASSERT_EQ(dist.entries.size(), 4u);
  EXPECT_EQ(dist.entries[0].error_code, "X2");
  EXPECT_DOUBLE_EQ(dist.entries[0].fraction, 0.47);
  EXPECT_EQ(dist.entries[1].error_code, "B15");
  EXPECT_EQ(dist.entries[2].error_code, "CR2");
  EXPECT_EQ(dist.entries[3].error_code, "Other");
  EXPECT_EQ(dist.entries[3].count, 16u);
  EXPECT_EQ(dist.total, 100u);
}

TEST(DistributionTest, FewerCodesThanTopN) {
  std::map<std::string, size_t> counts = {{"A", 5}, {"B", 5}};
  Distribution dist = Distribution::FromCounts("src", counts, 3);
  ASSERT_EQ(dist.entries.size(), 2u) << "no Other bucket when all shown";
}

TEST(DistributionTest, EmptyCounts) {
  Distribution dist = Distribution::FromCounts("src", {}, 3);
  EXPECT_TRUE(dist.entries.empty());
  EXPECT_EQ(dist.total, 0u);
}

TEST(ComparisonScreenTest, RenderContainsBothSources) {
  ComparisonScreen screen;
  screen.left = Distribution::FromCounts("Proprietary", {{"X2", 9}, {"B", 1}},
                                         3);
  screen.right = Distribution::FromCounts("NHTSA", {{"X2", 4}, {"C", 6}}, 3);
  std::string rendered = screen.Render();
  EXPECT_NE(rendered.find("Proprietary"), std::string::npos);
  EXPECT_NE(rendered.find("NHTSA"), std::string::npos);
  EXPECT_NE(rendered.find("X2"), std::string::npos);
  EXPECT_NE(rendered.find("%"), std::string::npos);
}

TEST(ComparisonScreenTest, OverlapScore) {
  ComparisonScreen screen;
  screen.left = Distribution::FromCounts("L", {{"A", 50}, {"B", 50}}, 5);
  screen.right = Distribution::FromCounts("R", {{"A", 50}, {"C", 50}}, 5);
  EXPECT_DOUBLE_EQ(screen.OverlapScore(), 0.5);

  ComparisonScreen identical;
  identical.left = Distribution::FromCounts("L", {{"A", 7}, {"B", 3}}, 5);
  identical.right = Distribution::FromCounts("R", {{"A", 7}, {"B", 3}}, 5);
  EXPECT_DOUBLE_EQ(identical.OverlapScore(), 1.0);

  ComparisonScreen disjoint;
  disjoint.left = Distribution::FromCounts("L", {{"A", 1}}, 5);
  disjoint.right = Distribution::FromCounts("R", {{"B", 1}}, 5);
  EXPECT_DOUBLE_EQ(disjoint.OverlapScore(), 0.0);
}

}  // namespace
}  // namespace qatk::quest
