// Regression tests for the lock-free reader path of RecommendationService
// (DESIGN.md §12): deterministic thread_local retirement, retrain
// invalidation of cached extractors, the zero-lock fast path, one concept
// trie build per trained snapshot (confirms and reader refreshes share
// it), and a reader/writer stress that TSan can chew on (run via
// scripts/check.sh thread stage).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/oem.h"
#include "datagen/world.h"
#include "quest/recommendation_service.h"
#include "quest/service_log.h"
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

bool SameRecommendation(const RecommendationService::Recommendation& a,
                        const RecommendationService::Recommendation& b) {
  if (a.truncated != b.truncated) return false;
  if (a.top.size() != b.top.size()) return false;
  for (size_t i = 0; i < a.top.size(); ++i) {
    if (a.top[i].error_code != b.top[i].error_code) return false;
    if (a.top[i].score != b.top[i].score) return false;  // Bit-exact.
  }
  return true;
}

uint64_t TrieBuilds() { return tax::ConceptTrie::BuildsForTest(); }

/// Recommends on a brand-new thread, so the answer comes from a reader
/// state refreshed right now rather than from this thread's cache.
RecommendationService::Recommendation RecommendOnFreshThread(
    const RecommendationService& service, const std::string& part_id,
    const std::string& text) {
  RecommendationService::Recommendation out;
  std::thread reader([&] {
    auto result = service.RecommendForText(part_id, text);
    ASSERT_TRUE(result.ok()) << result.status();
    out = *result;
  });
  reader.join();
  return out;
}

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  ServiceConcurrencyTest() : world_(SmallWorld()) {
    datagen::OemConfig oem;
    oem.num_bundles = 600;
    corpus_a_ = datagen::OemCorpusGenerator(&world_, oem).Generate();
    // Same world (same part ids), different bundle count: a genuinely
    // different vocabulary and knowledge base after a retrain.
    oem.num_bundles = 350;
    corpus_b_ = datagen::OemCorpusGenerator(&world_, oem).Generate();
  }

  datagen::DomainWorld world_;
  kb::Corpus corpus_a_;
  kb::Corpus corpus_b_;
};

// The old implementation kept a global unordered_map<thread::id, state>
// that grew by one entry per thread that ever touched the service and
// never shrank (with thread-id reuse aliasing on top). The thread_local
// redesign must retire state with its thread: 200 short-lived reader
// threads may not leave 200 states behind.
TEST_F(ServiceConcurrencyTest, ShortLivedReaderThreadsRetireTheirState) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_a_).ok());

  const int64_t base = RecommendationService::LiveReaderStatesForTest();
  std::atomic<size_t> failures{0};
  constexpr size_t kThreads = 200;
  for (size_t i = 0; i < kThreads; ++i) {
    std::thread reader([&] {
      const kb::DataBundle& bundle =
          corpus_a_.bundles[i % corpus_a_.bundles.size()];
      if (!service.Recommend(bundle).ok()) failures.fetch_add(1);
    });
    reader.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  // Every joined thread destroyed its thread_local state. (No slack: the
  // main thread made no queries between the baseline and here.)
  EXPECT_EQ(RecommendationService::LiveReaderStatesForTest(), base)
      << kThreads << " terminated reader threads leaked state";
}

// A reader thread that cached its extractor before a Retrain must not
// keep extracting with the old feature space: its next query has to
// produce exactly what a brand-new reader (fresh thread, no cache) sees.
TEST_F(ServiceConcurrencyTest, RetrainInvalidatesCachedReaderExtractor) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_a_).ok());

  const std::string part_id = "P01";
  std::string probe_text;
  for (const kb::DataBundle& bundle : corpus_a_.bundles) {
    if (bundle.part_id == part_id) {
      probe_text = bundle.mechanic_report;
      break;
    }
  }
  ASSERT_FALSE(probe_text.empty());

  // Populate this thread's reader cache against corpus A's vocabulary.
  ASSERT_TRUE(service.RecommendForText(part_id, probe_text).ok());

  ASSERT_TRUE(service.Retrain(corpus_b_).ok());

  auto cached = service.RecommendForText(part_id, probe_text);
  ASSERT_TRUE(cached.ok()) << cached.status();

  RecommendationService::Recommendation fresh;
  std::thread fresh_reader([&] {
    auto result = service.RecommendForText(part_id, probe_text);
    ASSERT_TRUE(result.ok()) << result.status();
    fresh = *result;
  });
  fresh_reader.join();

  EXPECT_TRUE(SameRecommendation(*cached, fresh))
      << "the pre-retrain reader cache served stale vocabulary";
}

// Code-level zero-lock assertion: once a thread has refreshed onto the
// current generation, further queries never take the slow path — the
// process-wide refresh counter must not move across N hot queries.
TEST_F(ServiceConcurrencyTest, SteadyStateQueriesNeverHitTheSlowPath) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_a_).ok());

  const kb::DataBundle& bundle = corpus_a_.bundles[0];
  ASSERT_TRUE(service.Recommend(bundle).ok());  // Warm this thread.

  const uint64_t refreshes = RecommendationService::ReaderRefreshesForTest();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(service.Recommend(bundle).ok());
  }
  EXPECT_EQ(RecommendationService::ReaderRefreshesForTest(), refreshes)
      << "the hot path fell off the lock-free fast path";
}

// Torn-state stress (the TSan target): 8 readers hammer a fixed probe
// while a writer flips the published snapshot between two trained worlds
// and folds in confirmations. Every answer must be bit-identical to the
// probe's answer under corpus A or under corpus B — any mixed
// index/vocabulary pairing would produce a third, torn ranking.
TEST_F(ServiceConcurrencyTest, ReadersNeverObserveTornSnapshots) {
  RecommendationService service(&world_.taxonomy(), {});
  ASSERT_TRUE(service.Train(corpus_a_).ok());

  const std::string probe_part = "P01";
  std::string probe_text;
  for (const kb::DataBundle& bundle : corpus_a_.bundles) {
    if (bundle.part_id == probe_part) {
      probe_text = bundle.mechanic_report;
      break;
    }
  }
  ASSERT_FALSE(probe_text.empty());

  // Reference answers under both snapshots. Confirmations during the
  // stress target a different part with disjoint text, so the probe
  // part's ranking under either vocabulary stays exactly one of these.
  auto ref_a = service.RecommendForText(probe_part, probe_text);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_FALSE(ref_a->top.empty());
  ASSERT_TRUE(service.Retrain(corpus_b_).ok());
  auto ref_b = service.RecommendForText(probe_part, probe_text);
  ASSERT_TRUE(ref_b.ok());
  ASSERT_TRUE(service.Retrain(corpus_a_).ok());

  constexpr size_t kReaders = 8;
  constexpr size_t kWriterIterations = 24;
  const uint64_t builds_before = TrieBuilds();
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> torn{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto result = service.RecommendForText(probe_part, probe_text);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        if (!SameRecommendation(*result, *ref_a) &&
            !SameRecommendation(*result, *ref_b)) {
          torn.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    for (size_t i = 0; i < kWriterIterations; ++i) {
      if (!service.Retrain(i % 2 == 0 ? corpus_b_ : corpus_a_).ok()) {
        failures.fetch_add(1);
      }
      if (i % 4 == 0) {
        kb::DataBundle confirm;
        confirm.reference_number = "STRESS" + std::to_string(i);
        confirm.part_id = "P02";  // Never the probe part.
        confirm.mechanic_report =
            "stress confirmation iteration " + std::to_string(i);
        if (!service.ConfirmAssignment(confirm, "E_STRESS").ok()) {
          failures.fetch_add(1);
        }
      }
    }
    // Land on corpus A so the final assertion below has a known state.
    if (!service.Retrain(corpus_a_).ok()) failures.fetch_add(1);
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(torn.load(), 0u)
      << "a reader observed a torn index/vocabulary pairing";
  EXPECT_GT(reads.load(), kReaders)
      << "stress produced implausibly few reads";
  // Only the writer's kWriterIterations + 1 retrains build a trie; the
  // confirms and every reader refresh share the snapshot's.
  EXPECT_EQ(TrieBuilds() - builds_before, kWriterIterations + 1)
      << "a confirm or a reader refresh rebuilt the concept trie";
  auto final_result = service.RecommendForText(probe_part, probe_text);
  ASSERT_TRUE(final_result.ok());
  EXPECT_TRUE(SameRecommendation(*final_result, *ref_a));
}

// The concept trie is built once per trained snapshot: Train and Retrain
// each build one; confirms copy the snapshot's pointer, and the reader
// refresh each confirm forces binds to it instead of rebuilding.
TEST_F(ServiceConcurrencyTest, TrieBuiltOncePerTrainedSnapshot) {
  RecommendationService service(&world_.taxonomy(), {});
  uint64_t builds = TrieBuilds();
  ASSERT_TRUE(service.Train(corpus_a_).ok());
  EXPECT_EQ(TrieBuilds(), builds + 1) << "Train";
  builds = TrieBuilds();
  ASSERT_TRUE(service.Retrain(corpus_b_).ok());
  EXPECT_EQ(TrieBuilds(), builds + 1) << "Retrain";

  builds = TrieBuilds();
  const uint64_t refreshes = RecommendationService::ReaderRefreshesForTest();
  constexpr size_t kCycles = 20;
  for (size_t i = 0; i < kCycles; ++i) {
    const kb::DataBundle& bundle = corpus_a_.bundles[i];
    ASSERT_TRUE(service.ConfirmAssignment(bundle, bundle.error_code).ok());
    ASSERT_TRUE(service.Recommend(corpus_b_.bundles[i]).ok());
  }
  EXPECT_EQ(RecommendationService::ReaderRefreshesForTest() - refreshes,
            kCycles)
      << "every confirm should force exactly one refresh on this thread";
  EXPECT_EQ(TrieBuilds(), builds)
      << "a confirm or a reader refresh rebuilt the concept trie";
}

// Recovery from a checkpoint snapshot builds the trie once.
TEST_F(ServiceConcurrencyTest, OpenFromSnapshotBuildsTheTrieOnce) {
  const std::string data_dir = ::testing::TempDir() + "/trie_builds_open";
  std::remove(ServiceLogPath(data_dir).c_str());
  std::remove(ServiceSnapshotPath(data_dir).c_str());
  {
    auto service =
        RecommendationService::Open(&world_.taxonomy(), {}, data_dir);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Retrain(corpus_a_).ok());
    ASSERT_TRUE((*service)->Checkpoint().ok());
  }
  const uint64_t builds = TrieBuilds();
  auto reopened = RecommendationService::Open(&world_.taxonomy(), {}, data_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE((*reopened)->durability().recovered_snapshot);
  ASSERT_EQ((*reopened)->durability().replayed_records, 0u);
  const kb::DataBundle& probe = corpus_a_.bundles[0];
  ASSERT_TRUE((*reopened)->Recommend(probe).ok());
  ASSERT_TRUE((*reopened)->ConfirmAssignment(probe, probe.error_code).ok());
  ASSERT_TRUE((*reopened)->Recommend(probe).ok());
  EXPECT_EQ(TrieBuilds() - builds, 1u);
  std::remove(ServiceLogPath(data_dir).c_str());
  std::remove(ServiceSnapshotPath(data_dir).c_str());
}

// The served trie is pinned to its trained snapshot: the taxonomy is read
// only at Train / Retrain / Open. A synonym added after training must not
// leak into a confirm or a freshly refreshed reader (their annotations
// would no longer match the vocabulary the index was trained on); the
// next Retrain picks it up.
TEST_F(ServiceConcurrencyTest, ServedTrieIsPinnedToItsSnapshot) {
  tax::Taxonomy taxonomy = world_.taxonomy();
  RecommendationService service(&taxonomy, {});
  ASSERT_TRUE(service.Train(corpus_a_).ok());

  // A concept that P01's knowledge base uses, with a synonym that
  // annotates as exactly that concept.
  const std::string part_id = "P01";
  const kb::KnowledgeBase& knowledge = service.knowledge();
  int64_t concept_id = 0;
  std::string known_surface;
  kb::FeatureVocabulary vocabulary;
  kb::FeatureExtractor extractor(kb::FeatureModel::kBagOfConcepts,
                                 &taxonomy, &vocabulary);
  for (const kb::KnowledgeNode* node : knowledge.NodesForPart(part_id)) {
    for (int64_t id : node->features) {
      auto cpt = taxonomy.Find(id);
      ASSERT_TRUE(cpt.ok());
      for (const auto& [lang, surfaces] : (*cpt)->synonyms) {
        for (const std::string& surface : surfaces) {
          auto features = extractor.Extract(surface);
          ASSERT_TRUE(features.ok());
          if (*features == std::vector<int64_t>{id}) {
            concept_id = id;
            known_surface = surface;
          }
        }
      }
      if (concept_id != 0) break;
    }
    if (concept_id != 0) break;
  }
  ASSERT_NE(concept_id, 0) << "no single-concept synonym for " << part_id;

  const std::string new_synonym = "zzqpinnedsynonym";
  const auto before = RecommendOnFreshThread(service, part_id, new_synonym);
  const auto known = RecommendOnFreshThread(service, part_id, known_surface);
  ASSERT_FALSE(SameRecommendation(before, known))
      << "probe cannot tell a matched synonym from an unmatched one";

  ASSERT_TRUE(taxonomy
                  .AddSynonym(concept_id, text::Language::kGerman,
                              new_synonym)
                  .ok());
  // Confirm on another part (so P01's ranking stays comparable), then
  // read from a new thread: still the trained trie.
  kb::DataBundle confirm;
  confirm.reference_number = "PINNED";
  confirm.part_id = "P02";
  confirm.mechanic_report = new_synonym + " " + known_surface;
  ASSERT_TRUE(service.ConfirmAssignment(confirm, "E_PINNED").ok());
  EXPECT_TRUE(SameRecommendation(
      RecommendOnFreshThread(service, part_id, new_synonym), before))
      << "a confirm or a reader refresh annotated with the mutated taxonomy";

  ASSERT_TRUE(service.Retrain(corpus_a_).ok());
  EXPECT_TRUE(SameRecommendation(
      RecommendOnFreshThread(service, part_id, new_synonym),
      RecommendOnFreshThread(service, part_id, known_surface)))
      << "Retrain did not pick up the new synonym";
}

}  // namespace
}  // namespace qatk::quest
