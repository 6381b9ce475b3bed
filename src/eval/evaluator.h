#ifndef QATK_EVAL_EVALUATOR_H_
#define QATK_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/similarity.h"
#include "kb/data_bundle.h"
#include "kb/features.h"
#include "taxonomy/taxonomy.h"

namespace qatk::eval {

/// One classifier variant under evaluation.
struct VariantSpec {
  kb::FeatureModel model = kb::FeatureModel::kBagOfWords;
  core::SimilarityMeasure similarity = core::SimilarityMeasure::kJaccard;

  std::string Name() const;
};

/// Cross-validation setup for the paper's experiments (§5.1).
struct EvalConfig {
  size_t folds = 5;
  uint64_t fold_seed = 20160318;
  std::vector<size_t> ks = {1, 5, 10, 15, 20, 25};
  /// §4.3: error codes of the 25 best-scored candidate nodes.
  size_t max_nodes = 25;
  /// Knowledge bases are always trained on this source mask.
  unsigned train_mask = kb::kTrainSources;
  /// Each probe mask yields one experiment: kTestSources reproduces
  /// Fig. 11; kMechanicOnly Fig. 12; kSupplierOnly Fig. 13.
  std::vector<unsigned> probe_masks = {kb::kTestSources};
  std::vector<VariantSpec> variants = {
      {kb::FeatureModel::kBagOfWords, core::SimilarityMeasure::kJaccard},
      {kb::FeatureModel::kBagOfWords, core::SimilarityMeasure::kOverlap},
      {kb::FeatureModel::kBagOfConcepts, core::SimilarityMeasure::kJaccard},
      {kb::FeatureModel::kBagOfConcepts, core::SimilarityMeasure::kOverlap},
  };
  bool include_frequency_baseline = true;
  bool include_candidate_baseline = true;
  /// Classify through a per-fold frozen CSR index (term-at-a-time
  /// accumulation) instead of brute-force candidate materialization +
  /// per-candidate merges. Rankings are bit-identical either way (enforced
  /// by tests/frozen_index_test.cc); only the timing columns change. False
  /// keeps the brute-force path as the reference oracle for benchmarks.
  bool use_frozen_index = true;
  /// Worker threads for feature extraction and the per-fold CV loop;
  /// 1 = fully sequential, 0 = hardware concurrency. Accuracy and MRR are
  /// identical for every value (per-fold accumulators merge exactly, see
  /// FoldedAccuracy::Merge); only wall-clock and the timing columns vary.
  size_t threads = 1;
};

/// One accuracy curve of the final report.
struct CurveResult {
  std::string name;          ///< e.g. "bag-of-words + jaccard".
  unsigned probe_mask = 0;   ///< Which experiment it belongs to.
  std::vector<double> accuracy_at;  ///< Parallel to EvalReport::ks.
  /// Mean reciprocal rank of the correct code (fold-averaged).
  double mrr = 0;
  /// Mean wall-clock per classified bundle, microseconds (classification
  /// only: candidate selection + scoring; reproduces the §5.2.2 runtime
  /// comparison in shape).
  double micros_per_bundle = 0;
  /// Mean candidate-set size (why bag-of-words is slow).
  double mean_candidates = 0;
  size_t evaluated = 0;
};

/// Full cross-validated report.
struct EvalReport {
  std::vector<size_t> ks;
  std::vector<CurveResult> curves;
  size_t learnable_bundles = 0;
  size_t distinct_learnable_codes = 0;
  double mean_test_fold_size = 0;

  /// All curves for one probe mask.
  std::vector<const CurveResult*> CurvesFor(unsigned probe_mask) const;

  /// Finds a curve by name + mask.
  Result<const CurveResult*> Find(const std::string& name,
                                  unsigned probe_mask) const;

  /// Renders one experiment as the paper-style accuracy@k table. It holds
  /// no wall-clock value, so two runs of one build print the same table.
  std::string FormatTable(unsigned probe_mask) const;

  /// Renders the experiment's wall-clock column (us per classified bundle)
  /// as a block of its own, printed after the result tables.
  std::string FormatTimings(unsigned probe_mask) const;
};

/// \brief Runs the paper's cross-validated classification experiments:
/// trains knowledge bases per fold per feature model, classifies each test
/// bundle under every variant and probe mask, and aggregates Accuracy@k
/// plus runtime (the whole of §5.1-§5.3 in one pass).
class Evaluator {
 public:
  /// `taxonomy` backs the bag-of-concepts extractor; both referents must
  /// outlive the evaluator.
  Evaluator(const tax::Taxonomy* taxonomy, const kb::Corpus* corpus)
      : taxonomy_(taxonomy), corpus_(corpus) {}

  Result<EvalReport> Run(const EvalConfig& config) const;

 private:
  const tax::Taxonomy* taxonomy_;
  const kb::Corpus* corpus_;
};

}  // namespace qatk::eval

#endif  // QATK_EVAL_EVALUATOR_H_
