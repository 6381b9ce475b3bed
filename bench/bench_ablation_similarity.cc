// A2 (ours) — similarity-measure and cutoff ablations. The paper built the
// classifier so that "the similarity measure, the choice of features ...
// and the method for deriving the class assignment ... can be adjusted"
// (§4.2) and names other measures as future work. This bench extends the
// Jaccard/Overlap comparison with Dice and Cosine, and sweeps the
// max-nodes cutoff around the paper's fixed 25 (§4.3).

#include <cstdio>
#include <string>

#include "common/strutil.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "eval/evaluator.h"

int main() {
  qatk::datagen::DomainWorld world;
  qatk::datagen::OemCorpusGenerator generator(&world);
  qatk::kb::Corpus corpus = generator.Generate();
  qatk::eval::Evaluator evaluator(&world.taxonomy(), &corpus);

  std::printf("A2 — similarity measures beyond the paper "
              "(bag-of-concepts and bag-of-words, all reports)\n\n");
  // Wall-clock values go after every result table, so two runs print the
  // same tables.
  std::string timings;
  {
    qatk::eval::EvalConfig config;
    config.include_candidate_baseline = false;
    config.include_frequency_baseline = false;
    config.variants.clear();
    for (auto model : {qatk::kb::FeatureModel::kBagOfConcepts,
                       qatk::kb::FeatureModel::kBagOfWords,
                       qatk::kb::FeatureModel::kBagOfStems}) {
      for (auto sim : {qatk::core::SimilarityMeasure::kJaccard,
                       qatk::core::SimilarityMeasure::kOverlap,
                       qatk::core::SimilarityMeasure::kDice,
                       qatk::core::SimilarityMeasure::kCosine}) {
        config.variants.push_back({model, sim});
      }
    }
    auto report = evaluator.Run(config);
    report.status().Abort();
    std::printf("%s\n", report->FormatTable(qatk::kb::kTestSources).c_str());
    timings = report->FormatTimings(qatk::kb::kTestSources);
  }

  std::printf("cutoff sweep — max scored nodes (paper fixes 25), "
              "bag-of-concepts + jaccard\n\n");
  std::printf("%-12s %8s %8s %8s\n", "max_nodes", "A@1", "A@10", "A@25");
  for (size_t max_nodes : {5u, 10u, 25u, 50u, 100u}) {
    qatk::eval::EvalConfig config;
    config.include_candidate_baseline = false;
    config.include_frequency_baseline = false;
    config.max_nodes = max_nodes;
    config.variants = {{qatk::kb::FeatureModel::kBagOfConcepts,
                        qatk::core::SimilarityMeasure::kJaccard}};
    auto report = evaluator.Run(config);
    report.status().Abort();
    auto curve = report->Find("bag-of-concepts + jaccard",
                              qatk::kb::kTestSources);
    curve.status().Abort();
    std::printf("%-12zu %8s %8s %8s\n", max_nodes,
                qatk::FormatDouble((*curve)->accuracy_at[0], 3).c_str(),
                qatk::FormatDouble((*curve)->accuracy_at[2], 3).c_str(),
                qatk::FormatDouble((*curve)->accuracy_at[5], 3).c_str());
  }
  std::printf("\n%s\n", timings.c_str());
  return 0;
}
