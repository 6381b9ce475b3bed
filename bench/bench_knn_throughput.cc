// Serving-throughput bench for the frozen CSR kNN index (the §5.2.2
// runtime-feasibility argument, taken to serving scale): classification
// queries/sec and latency percentiles for the brute-force scorer
// (candidate materialization + per-candidate sorted merges) vs the
// frozen-index scorer (term-at-a-time accumulation + top-k selection),
// plus multi-thread scaling of the indexed path and the index's memory
// footprint.
//
// Before timing anything it proves both paths produce bit-identical
// rankings on every probe for all four similarity measures (exit 2 on a
// divergence). Emits a machine-readable BENCH_knn.json stamped with the
// commit, build type and core count, and exits 1 when the indexed path
// fails to beat brute force or (on >= 4 cores) when adding threads makes
// it slower — the perf-smoke gate in scripts/check.sh.
//
// Usage: bench_knn_throughput [--quick] [--out=BENCH_knn.json] [--threads=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "core/classifier.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "kb/data_bundle.h"
#include "kb/features.h"
#include "kb/frozen_index.h"
#include "kb/knowledge_base.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Probe {
  const std::string* part_id;
  std::vector<int64_t> features;
};

struct LatencyStats {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t queries = 0;
};

/// Runs `passes` untimed-per-query sweeps of fn(probe_index) for the
/// throughput number (wall clock around whole sweeps only, so qps carries
/// no per-query timer overhead), then one instrumented sweep for the
/// latency percentiles. Both paths are measured this same way, so the
/// brute/indexed comparison stays apples-to-apples.
template <typename Fn>
void FillPercentiles(size_t num_probes, Fn&& fn, LatencyStats* stats) {
  std::vector<double> latencies;
  latencies.reserve(num_probes);
  for (size_t i = 0; i < num_probes; ++i) {
    const auto q0 = Clock::now();
    fn(i);
    const auto q1 = Clock::now();
    latencies.push_back(
        std::chrono::duration<double, std::micro>(q1 - q0).count());
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    stats->p50_us = latencies[latencies.size() / 2];
    stats->p99_us = latencies[latencies.size() * 99 / 100];
  }
}

template <typename Fn>
LatencyStats Measure(size_t passes, size_t num_probes, Fn&& fn) {
  LatencyStats stats;
  stats.queries = passes * num_probes;
  const auto begin = Clock::now();
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < num_probes; ++i) fn(i);
  }
  const auto end = Clock::now();
  const double seconds = std::chrono::duration<double>(end - begin).count();
  stats.qps = seconds > 0 ? static_cast<double>(stats.queries) / seconds : 0;
  FillPercentiles(num_probes, fn, &stats);
  return stats;
}

struct ModelResult {
  const char* name;
  size_t nodes = 0;
  size_t parts = 0;
  size_t postings = 0;
  size_t index_bytes = 0;  // FrozenIndex::memory_bytes().
  size_t probes = 0;
  LatencyStats brute;
  LatencyStats indexed;
  double speedup = 0;
  std::vector<std::pair<size_t, double>> scaling;  // (threads, qps)
  std::vector<std::pair<size_t, double>> scaling_interleaved;
};

void WriteJson(const char* path, bool quick, unsigned cores, bool enforced,
               size_t bundles, size_t learnable,
               const std::vector<ModelResult>& results) {
  std::string text;
  qatk::benchutil::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench").Value("knn_throughput");
  // Provenance up front: a stale, single-core, quick-mode or non-Release
  // JSON must be identifiable as such at a glance.
  json.Key("commit").Value(QATK_GIT_COMMIT);
  json.Key("build_type").Value(QATK_BUILD_TYPE);
  json.Key("quick").Value(quick);
  json.Key("cores").Value(static_cast<uint64_t>(cores));
  json.Key("scaling_enforced").Value(enforced);
  json.Key("similarity").Value("jaccard");
  json.Key("max_nodes").Value(25);
  json.Key("corpus").BeginObject();
  json.Key("bundles").Value(static_cast<uint64_t>(bundles));
  json.Key("learnable").Value(static_cast<uint64_t>(learnable));
  json.EndObject();
  json.Key("results").BeginArray();
  for (const ModelResult& r : results) {
    json.BeginObject();
    json.Key("model").Value(r.name);
    json.Key("nodes").Value(static_cast<uint64_t>(r.nodes));
    json.Key("parts").Value(static_cast<uint64_t>(r.parts));
    json.Key("postings").Value(static_cast<uint64_t>(r.postings));
    json.Key("index_bytes").Value(static_cast<uint64_t>(r.index_bytes));
    json.Key("probes").Value(static_cast<uint64_t>(r.probes));
    const auto emit_stats = [&json](const char* label,
                                    const LatencyStats& stats) {
      json.Key(label).BeginObject();
      // "qps" stays the first key inside each stats object: the obs
      // overhead smoke in scripts/check.sh greps the line after the
      // first `"indexed": {`.
      json.Key("qps").Value(stats.qps, 1);
      json.Key("p50_us").Value(stats.p50_us, 2);
      json.Key("p99_us").Value(stats.p99_us, 2);
      json.EndObject();
    };
    emit_stats("brute", r.brute);
    emit_stats("indexed", r.indexed);
    json.Key("speedup").Value(r.speedup, 2);
    const auto emit_scaling =
        [&json](const char* label,
                const std::vector<std::pair<size_t, double>>& table) {
          json.Key(label).BeginArray();
          for (const auto& [threads, qps] : table) {
            json.BeginObject();
            json.Key("threads").Value(static_cast<uint64_t>(threads));
            json.Key("qps").Value(qps, 1);
            json.EndObject();
          }
          json.EndArray();
        };
    emit_scaling("scaling", r.scaling);
    emit_scaling("scaling_interleaved", r.scaling_interleaved);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Finish();
  if (qatk::benchutil::WriteFile(path, text)) {
    std::printf("\nmachine-readable results written to %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_knn.json";
  size_t max_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = static_cast<size_t>(std::atol(argv[i] + 10));
      if (max_threads == 0) max_threads = qatk::ThreadPool::DefaultThreads();
    }
  }

  std::printf("serving-throughput bench: frozen CSR index vs brute-force "
              "kNN scoring%s\n\n",
              quick ? " (--quick)" : "");

  qatk::datagen::DomainWorld world;
  qatk::datagen::OemCorpusGenerator generator(&world);
  qatk::kb::Corpus corpus = generator.Generate();
  std::vector<const qatk::kb::DataBundle*> bundles =
      corpus.LearnableBundles();
  QATK_CHECK(!bundles.empty());

  const qatk::core::RankedKnnClassifier classifier(
      {qatk::core::SimilarityMeasure::kJaccard, 25});
  const qatk::core::SimilarityMeasure all_measures[] = {
      qatk::core::SimilarityMeasure::kJaccard,
      qatk::core::SimilarityMeasure::kOverlap,
      qatk::core::SimilarityMeasure::kDice,
      qatk::core::SimilarityMeasure::kCosine,
  };

  struct ModelSpec {
    qatk::kb::FeatureModel model;
    const char* name;
  };
  // Bag-of-words first: it has the long posting runs, so its numbers lead
  // the report (and the JSON).
  const ModelSpec specs[] = {
      {qatk::kb::FeatureModel::kBagOfWords, "bag-of-words"},
      {qatk::kb::FeatureModel::kBagOfConcepts, "bag-of-concepts"},
  };

  std::vector<ModelResult> results;
  bool indexed_won = true;
  for (const ModelSpec& spec : specs) {
    // Train one knowledge base on the full learnable corpus (the serving
    // scenario: train once, then answer probes).
    qatk::kb::FeatureVocabulary vocabulary;
    qatk::kb::FeatureExtractor extractor(spec.model, &world.taxonomy(),
                                         &vocabulary);
    qatk::kb::KnowledgeBase knowledge;
    std::vector<Probe> probes;
    probes.reserve(bundles.size());
    for (const qatk::kb::DataBundle* bundle : bundles) {
      auto train = extractor.Extract(qatk::kb::ComposeDocument(
          *bundle, qatk::kb::kTrainSources, corpus));
      train.status().Abort();
      knowledge.AddInstance(bundle->part_id, bundle->error_code,
                            std::move(*train));
      auto probe = extractor.Extract(qatk::kb::ComposeDocument(
          *bundle, qatk::kb::kTestSources, corpus));
      probe.status().Abort();
      probes.push_back({&bundle->part_id, std::move(*probe)});
    }
    qatk::kb::FrozenIndex index = qatk::kb::FrozenIndex::Build(knowledge);

    ModelResult result;
    result.name = spec.name;
    result.nodes = index.num_nodes();
    result.parts = index.num_parts();
    result.postings = index.num_postings();
    result.index_bytes = index.memory_bytes();
    result.probes = probes.size();

    // Equivalence gate before any timing: every probe, all four measures,
    // brute vs indexed — the index must be invisible in results.
    qatk::kb::FrozenIndex::Scratch scratch;
    for (const Probe& probe : probes) {
      for (qatk::core::SimilarityMeasure measure : all_measures) {
        qatk::core::RankedKnnClassifier check({measure, 25});
        if (check.Classify(knowledge, *probe.part_id, probe.features) !=
            check.Classify(index, *probe.part_id, probe.features, &scratch)) {
          std::fprintf(stderr,
                       "FATAL: indexed ranking diverged from brute force "
                       "(model=%s measure=%s part=%s)\n",
                       spec.name,
                       qatk::core::SimilarityMeasureToString(measure),
                       probe.part_id->c_str());
          return 2;
        }
      }
    }

    const size_t brute_passes = 1;
    const size_t indexed_passes = quick ? 4 : 16;
    size_t sink = 0;  // Defeats dead-code elimination of the scoring.

    result.brute = Measure(brute_passes, probes.size(), [&](size_t i) {
      sink += classifier
                  .Classify(knowledge, *probes[i].part_id,
                            probes[i].features)
                  .size();
    });
    result.indexed = Measure(indexed_passes, probes.size(), [&](size_t i) {
      sink += classifier
                  .Classify(index, *probes[i].part_id, probes[i].features,
                            &scratch)
                  .size();
    });
    result.speedup = result.brute.qps > 0
                         ? result.indexed.qps / result.brute.qps
                         : 0;
    indexed_won = indexed_won && result.indexed.qps > result.brute.qps;

    // Multi-thread scaling of the indexed path, two work shapes: each
    // worker sweeping the whole probe set (independent sweeps), and the
    // workers interleaving over one shared probe sequence stride-T (the
    // scatter shape a serving front end produces). Each worker owns its
    // scratch accumulator.
    std::vector<size_t> thread_counts;
    for (size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
    if (thread_counts.back() != max_threads) {
      thread_counts.push_back(max_threads);
    }
    for (size_t t : thread_counts) {
      const size_t sweeps = t * (quick ? 2 : 8);
      std::vector<size_t> sweep_sinks(sweeps, 0);
      const auto begin = Clock::now();
      qatk::ParallelFor(t, sweeps, [&](size_t w) {
        qatk::kb::FrozenIndex::Scratch local;
        size_t local_sink = 0;
        for (const Probe& probe : probes) {
          local_sink += classifier
                            .Classify(index, *probe.part_id, probe.features,
                                      &local)
                            .size();
        }
        sweep_sinks[w] = local_sink;
      });
      const auto end = Clock::now();
      const double seconds =
          std::chrono::duration<double>(end - begin).count();
      result.scaling.push_back(
          {t, static_cast<double>(sweeps * probes.size()) / seconds});
      for (size_t s : sweep_sinks) sink += s;

      // Interleaved: worker w answers probes w, w+t, w+2t, ... so
      // consecutive probes land on different workers, `sweeps` passes
      // total. Same query count as above; different cache behaviour.
      std::vector<size_t> lane_sinks(t, 0);
      const auto ibegin = Clock::now();
      qatk::ParallelFor(t, t, [&](size_t w) {
        qatk::kb::FrozenIndex::Scratch local;
        size_t local_sink = 0;
        for (size_t pass = 0; pass < sweeps; ++pass) {
          for (size_t i = w; i < probes.size(); i += t) {
            local_sink += classifier
                              .Classify(index, *probes[i].part_id,
                                        probes[i].features, &local)
                              .size();
          }
        }
        lane_sinks[w] = local_sink;
      });
      const auto iend = Clock::now();
      const double iseconds =
          std::chrono::duration<double>(iend - ibegin).count();
      result.scaling_interleaved.push_back(
          {t, static_cast<double>(sweeps * probes.size()) / iseconds});
      for (size_t s : lane_sinks) sink += s;
    }
    if (sink == 0) std::printf("(empty rankings)\n");

    std::printf("%s: %zu nodes, %zu parts, %zu postings, %.2f MB index, "
                "%zu probes\n",
                spec.name, result.nodes, result.parts, result.postings,
                static_cast<double>(result.index_bytes) / 1e6, result.probes);
    std::printf("  %-16s %12s %10s %10s\n", "path", "queries/s", "p50 us",
                "p99 us");
    std::printf("  %-16s %12.0f %10.2f %10.2f\n", "brute-force",
                result.brute.qps, result.brute.p50_us, result.brute.p99_us);
    std::printf("  %-16s %12.0f %10.2f %10.2f\n", "indexed",
                result.indexed.qps, result.indexed.p50_us,
                result.indexed.p99_us);
    std::printf("  single-thread speedup over brute: %.2fx\n",
                result.speedup);
    std::printf("  scaling:       ");
    for (const auto& [t, qps] : result.scaling) {
      std::printf("  %zut=%.0f q/s", t, qps);
    }
    std::printf("\n  interleaved:   ");
    for (const auto& [t, qps] : result.scaling_interleaved) {
      std::printf("  %zut=%.0f q/s", t, qps);
    }
    std::printf("\n\n");
    results.push_back(std::move(result));
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const bool scaling_enforced = cores >= 4;
  WriteJson(out_path.c_str(), quick, cores, scaling_enforced,
            corpus.bundles.size(), bundles.size(), results);

  if (!indexed_won) {
    std::fprintf(stderr,
                 "FAIL: indexed scoring is slower than brute force\n");
    return 1;
  }
  // Scaling gate: the 1->4 table must be monotonically non-decreasing
  // (within a small jitter tolerance per step) and the 4-thread point must
  // not fall below single-thread — adding cores must never make us slower.
  // Only enforceable where 4 worker threads can actually run in parallel.
  bool scaling_ok = true;
  if (scaling_enforced) {
    constexpr double kStepTolerance = 0.95;
    for (const ModelResult& r : results) {
      double prev = 0, qps1 = 0, qps4 = 0;
      for (const auto& [t, qps] : r.scaling) {
        if (t > 4) continue;
        if (t == 1) qps1 = qps;
        if (t == 4) qps4 = qps;
        if (prev > 0 && qps < prev * kStepTolerance) {
          std::fprintf(stderr,
                       "FAIL: %s indexed qps falls at %zu threads (%.0f -> "
                       "%.0f q/s)\n",
                       r.name, t, prev, qps);
          scaling_ok = false;
        }
        prev = qps;
      }
      if (qps1 > 0 && qps4 > 0 && qps4 < qps1) {
        std::fprintf(stderr,
                     "FAIL: %s indexed 4-thread qps below 1-thread (%.0f < "
                     "%.0f q/s)\n",
                     r.name, qps4, qps1);
        scaling_ok = false;
      }
    }
  } else {
    std::fprintf(stderr,
                 "SKIPPED: thread-scaling gate (host has %u cores, needs "
                 ">= 4); the scaling table is informational only\n",
                 cores);
  }
  if (!scaling_ok) return 1;
  std::printf("OK: indexed path matches and beats brute force on every "
              "model\n");
  return 0;
}
