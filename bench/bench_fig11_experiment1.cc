// E1 — Figure 11: Experiment 1, text-based error-code prediction on all
// reports. Reproduces the accuracy@k series for bag-of-words and
// bag-of-concepts under Jaccard and Overlap similarity, plus the
// code-frequency and candidate-set baselines, with stratified 5-fold CV
// on the learnable bundles.
//
// Paper anchors (shape, not absolutes):
//   BoW+Jaccard  A@1 ~0.81, A@5 ~0.94
//   BoW+Overlap  A@1 ~0.76, A@5 ~0.93
//   BoC+Jaccard  A@1 ~0.56, A@5 ~0.85, A@10 ~0.92
//   BoC+Overlap  at or slightly below the code-frequency baseline at k=1
//   Code-frequency baseline  A@1 ~0.35, A@5 ~0.76, A@10 ~0.88
//   Candidate-set baselines  <1% at k=1, ~linear growth to ~0.83 at k=25

#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/csv.h"
#include "common/strutil.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "eval/evaluator.h"

int main(int argc, char** argv) {
  qatk::datagen::DomainWorld world;
  qatk::datagen::OemCorpusGenerator generator(&world);
  qatk::kb::Corpus corpus = generator.Generate();

  qatk::eval::Evaluator evaluator(&world.taxonomy(), &corpus);
  qatk::eval::EvalConfig config;
  config.probe_masks = {qatk::kb::kTestSources};
  auto report = evaluator.Run(config);
  report.status().Abort();

  std::printf("E1 / Figure 11 — Experiment 1: text-based error code "
              "prediction (all reports)\n\n");
  std::printf("%s\n", report->FormatTable(qatk::kb::kTestSources).c_str());
  std::printf("%s\n", report->FormatTimings(qatk::kb::kTestSources).c_str());

  // Machine-readable series next to the human-readable table.
  if (argc > 1) {
    std::ofstream csv_file(argv[1]);
    qatk::CsvWriter csv(&csv_file);
    std::vector<std::string> header = {"variant"};
    for (size_t k : report->ks) header.push_back("a@" + std::to_string(k));
    csv.WriteRow(header);
    for (const auto* curve : report->CurvesFor(qatk::kb::kTestSources)) {
      std::vector<std::string> row = {curve->name};
      for (double a : curve->accuracy_at) {
        row.push_back(qatk::FormatDouble(a, 4));
      }
      csv.WriteRow(row);
    }
    std::printf("series written to %s\n", argv[1]);
  }
  return 0;
}
