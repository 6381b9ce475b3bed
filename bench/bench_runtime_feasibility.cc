// E4 — §5.2.2 runtime feasibility (in-text numbers). The paper reports,
// per classified bundle: bag-of-words ~0.5 s, bag-of-words after stopword
// removal ~0.3 s (accuracy unchanged), bag-of-concepts ~0.14 s — i.e. the
// domain-specific model is >3x faster than the domain-ignorant one, which
// is what makes it the industrially feasible choice despite its lower
// accuracy. Absolute numbers are not comparable (their stack was Java +
// an external RDBMS); the SHAPE to check is the ordering and the ratio,
// plus "removing stopwords ... has no impact on the accuracy of
// classification, but shortens the runtime".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/strutil.h"
#include "common/thread_pool.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "eval/evaluator.h"

int main(int argc, char** argv) {
  // --threads=N runs the scaling table up to N workers (default 4).
  size_t max_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = static_cast<size_t>(std::atol(argv[i] + 10));
      if (max_threads == 0) max_threads = qatk::ThreadPool::DefaultThreads();
    }
  }

  qatk::datagen::DomainWorld world;
  qatk::datagen::OemCorpusGenerator generator(&world);
  qatk::kb::Corpus corpus = generator.Generate();

  qatk::eval::Evaluator evaluator(&world.taxonomy(), &corpus);
  qatk::eval::EvalConfig config;
  config.probe_masks = {qatk::kb::kTestSources};
  config.variants = {
      {qatk::kb::FeatureModel::kBagOfWords,
       qatk::core::SimilarityMeasure::kJaccard},
      {qatk::kb::FeatureModel::kBagOfWordsNoStop,
       qatk::core::SimilarityMeasure::kJaccard},
      {qatk::kb::FeatureModel::kBagOfConcepts,
       qatk::core::SimilarityMeasure::kJaccard},
  };
  config.include_candidate_baseline = false;
  config.include_frequency_baseline = false;
  // Same evaluation through both scoring paths: brute force (candidate
  // materialization + pairwise merges, the paper-faithful baseline) and
  // the frozen CSR index (term-at-a-time accumulation). Accuracy must be
  // identical — the index is bit-exact — only the runtime moves.
  config.use_frozen_index = false;
  auto brute = evaluator.Run(config);
  brute.status().Abort();
  config.use_frozen_index = true;
  auto report = evaluator.Run(config);
  report.status().Abort();

  // The result table holds only what repeats run to run, so two runs of
  // one commit print it identically; every wall-clock figure goes to the
  // timing block after it (as EvalReport::FormatTimings does for E1-E3).
  std::printf("E4 / §5.2.2 — runtime feasibility per classified bundle\n\n");
  std::printf("%-42s %8s %8s %12s %12s\n", "variant", "A@1", "A@10",
              "candidates", "paper s/bndl");
  const char* paper[] = {"0.50", "0.30", "0.14"};
  const char* names[] = {"bag-of-words + jaccard",
                         "bag-of-words-nostop + jaccard",
                         "bag-of-concepts + jaccard"};
  double brute_us[3];
  double indexed_us[3];
  for (int i = 0; i < 3; ++i) {
    auto curve = report->Find(names[i], qatk::kb::kTestSources);
    curve.status().Abort();
    auto brute_curve = brute->Find(names[i], qatk::kb::kTestSources);
    brute_curve.status().Abort();
    brute_us[i] = (*brute_curve)->micros_per_bundle;
    indexed_us[i] = (*curve)->micros_per_bundle;
    std::printf("%-42s %8s %8s %12s %12s\n", names[i],
                qatk::FormatDouble((*curve)->accuracy_at[0], 3).c_str(),
                qatk::FormatDouble((*curve)->accuracy_at[2], 3).c_str(),
                qatk::FormatDouble((*curve)->mean_candidates, 1).c_str(),
                paper[i]);
    if ((*brute_curve)->accuracy_at[0] != (*curve)->accuracy_at[0] ||
        (*brute_curve)->accuracy_at[2] != (*curve)->accuracy_at[2]) {
      std::fprintf(stderr,
                   "FATAL: frozen-index accuracy diverged from brute force "
                   "(%s)\n",
                   names[i]);
      return 2;
    }
  }
  std::printf("accuracy identical on the brute-force and the frozen CSR "
              "path\n");

  // Thread scaling: same evaluation end-to-end (feature extraction + CV)
  // at increasing EvalConfig::threads. Accuracy must be identical at every
  // thread count; only wall-clock changes.
  std::vector<size_t> thread_counts;
  for (size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);
  std::vector<double> thread_seconds;
  size_t learnable = 0;
  for (size_t t : thread_counts) {
    config.threads = t;
    auto start = std::chrono::steady_clock::now();
    auto scaled = evaluator.Run(config);
    auto end = std::chrono::steady_clock::now();
    scaled.status().Abort();
    thread_seconds.push_back(std::chrono::duration<double>(end - start).count());
    learnable = scaled->learnable_bundles;
    for (const char* name : names) {
      auto curve = report->Find(name, qatk::kb::kTestSources);
      auto threaded = scaled->Find(name, qatk::kb::kTestSources);
      threaded.status().Abort();
      if ((*threaded)->accuracy_at != (*curve)->accuracy_at) {
        std::fprintf(stderr,
                     "FATAL: accuracy at %zu threads diverged (%s)\n", t,
                     name);
        return 2;
      }
    }
  }
  std::printf("accuracy identical at every thread count (1..%zu)\n",
              max_threads);

  std::printf("\nWall clock, varies run to run\n");
  std::printf("%-42s %10s %10s %7s\n", "variant", "brute us", "indexed",
              "idx x");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-42s %10s %10s %6sx\n", names[i],
                qatk::FormatDouble(brute_us[i], 1).c_str(),
                qatk::FormatDouble(indexed_us[i], 1).c_str(),
                qatk::FormatDouble(
                    indexed_us[i] > 0 ? brute_us[i] / indexed_us[i] : 0, 2)
                    .c_str());
  }
  std::printf("bag-of-words / bag-of-concepts runtime ratio (indexed): "
              "measured %.1fx, paper ~3.6x (0.5s / 0.14s)\n",
              indexed_us[0] / indexed_us[2]);
  std::printf("(shape check: BoC fastest; stopword removal speeds up BoW "
              "without changing accuracy; the indexed column is the frozen "
              "CSR path with identical accuracy)\n");
  std::printf("\nthread scaling, full evaluation (extraction + %zu-fold CV), "
              "%zu hardware threads\n",
              config.folds, qatk::ThreadPool::DefaultThreads());
  std::printf("%8s %10s %14s %9s\n", "threads", "wall s", "bundles/s",
              "speedup");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%8zu %10.2f %14.0f %8.2fx\n", thread_counts[i],
                thread_seconds[i],
                static_cast<double>(learnable) / thread_seconds[i],
                thread_seconds[0] / thread_seconds[i]);
  }
  return 0;
}
