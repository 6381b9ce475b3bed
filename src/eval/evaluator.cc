#include "eval/evaluator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/strutil.h"
#include "common/thread_pool.h"
#include "core/baselines.h"
#include "core/classifier.h"
#include "eval/folds.h"
#include "eval/metrics.h"
#include "kb/frozen_index.h"
#include "kb/knowledge_base.h"

namespace qatk::eval {

namespace {

std::string MaskName(unsigned mask) {
  if (mask == kb::kTestSources) return "all-reports";
  if (mask == kb::kMechanicOnly) return "mechanic-only";
  if (mask == kb::kSupplierOnly) return "supplier-only";
  if (mask == kb::kTrainSources) return "train-sources";
  return "mask-" + std::to_string(mask);
}

/// Timing + candidate statistics for one curve.
struct CurveStats {
  double seconds = 0;
  size_t candidates = 0;
  size_t calls = 0;
};

/// Identifies one accuracy curve: variant (or baseline) name + probe mask.
struct CurveKey {
  std::string name;
  unsigned mask;
  bool operator<(const CurveKey& other) const {
    if (name != other.name) return name < other.name;
    return mask < other.mask;
  }
};

using Clock = std::chrono::steady_clock;

}  // namespace

std::string VariantSpec::Name() const {
  return std::string(kb::FeatureModelToString(model)) + " + " +
         core::SimilarityMeasureToString(similarity);
}

std::vector<const CurveResult*> EvalReport::CurvesFor(
    unsigned probe_mask) const {
  std::vector<const CurveResult*> out;
  for (const CurveResult& curve : curves) {
    if (curve.probe_mask == probe_mask) out.push_back(&curve);
  }
  return out;
}

Result<const CurveResult*> EvalReport::Find(const std::string& name,
                                            unsigned probe_mask) const {
  for (const CurveResult& curve : curves) {
    if (curve.name == name && curve.probe_mask == probe_mask) return &curve;
  }
  return Status::KeyError("no curve '" + name + "' for mask " +
                          std::to_string(probe_mask));
}

std::string EvalReport::FormatTable(unsigned probe_mask) const {
  std::ostringstream out;
  out << "Experiment [" << MaskName(probe_mask) << "], " << learnable_bundles
      << " bundles, " << distinct_learnable_codes << " classes, ~"
      << static_cast<size_t>(mean_test_fold_size) << " test bundles/fold\n";
  // Size the name column from the longest curve name so nothing truncates
  // and the accuracy columns stay aligned.
  std::vector<const CurveResult*> rows = CurvesFor(probe_mask);
  size_t name_width = 38;
  for (const CurveResult* curve : rows) {
    name_width = std::max(name_width, curve->name.size());
  }
  out << "  " << std::string(name_width - 2, ' ');
  for (size_t k : ks) out << "  A@" << k << (k < 10 ? " " : "");
  out << "  MRR     us/bundle  candidates\n";
  for (const CurveResult* curve : rows) {
    std::string name = curve->name;
    name.resize(name_width, ' ');
    out << name;
    for (size_t i = 0; i < ks.size(); ++i) {
      out << " " << FormatDouble(curve->accuracy_at[i], 3);
    }
    out << " " << FormatDouble(curve->mrr, 3);
    out << "   " << FormatDouble(curve->micros_per_bundle, 1) << "      "
        << FormatDouble(curve->mean_candidates, 1) << "\n";
  }
  return out.str();
}

Result<EvalReport> Evaluator::Run(const EvalConfig& config) const {
  // ------------------------------------------------------------------ setup
  std::vector<const kb::DataBundle*> bundles = corpus_->LearnableBundles();
  if (bundles.empty()) {
    return Status::Invalid("corpus has no learnable bundles");
  }
  std::vector<std::string> labels;
  labels.reserve(bundles.size());
  for (const kb::DataBundle* b : bundles) labels.push_back(b->error_code);
  QATK_ASSIGN_OR_RETURN(
      std::vector<size_t> fold_of,
      StratifiedKFold(labels, config.folds, config.fold_seed));

  // Distinct feature models referenced by the variants.
  std::vector<kb::FeatureModel> models;
  for (const VariantSpec& variant : config.variants) {
    if (std::find(models.begin(), models.end(), variant.model) ==
        models.end()) {
      models.push_back(variant.model);
    }
  }

  const size_t threads =
      config.threads == 0 ? ThreadPool::DefaultThreads() : config.threads;

  // ------------------------------------------- feature extraction (global)
  // For each model: per-bundle features for the train mask and for every
  // probe mask. One global vocabulary per model: interning is pure
  // representation (no label information flows through it).
  //
  // Two phases so the hot part parallelizes without changing results: the
  // preprocessing runs per-bundle on worker threads (each worker owns its
  // own extractor — extractors carry scratch buffers — over one shared
  // concept trie), then the mentions are interned sequentially in
  // bundle order, which reproduces the exact vocabulary a single-threaded
  // Extract pass would build.
  struct ModelFeatures {
    std::vector<std::vector<int64_t>> train;               // [bundle]
    std::map<unsigned, std::vector<std::vector<int64_t>>> probe;  // [mask]
  };
  struct BundleTerms {
    kb::TermMentions train;
    std::map<unsigned, kb::TermMentions> probe;
  };
  const size_t num_bundles = bundles.size();
  std::map<kb::FeatureModel, ModelFeatures> features;
  std::map<kb::FeatureModel, kb::FeatureVocabulary> vocabularies;
  for (kb::FeatureModel model : models) {
    std::vector<BundleTerms> terms(num_bundles);
    const size_t workers = std::min(threads, num_bundles);
    std::vector<Status> worker_status(workers, Status::OK());
    // One trie per model, shared read-only by every worker's extractor.
    const std::shared_ptr<const tax::ConceptTrie> concepts =
        kb::BuildConcepts(model, taxonomy_);
    ParallelFor(threads, workers, [&](size_t w) {
      kb::FeatureVocabulary scratch;  // ExtractTerms never touches it.
      kb::FeatureExtractor extractor(model, concepts, &scratch);
      const size_t begin = w * num_bundles / workers;
      const size_t end = (w + 1) * num_bundles / workers;
      for (size_t i = begin; i < end; ++i) {
        auto train = extractor.ExtractTerms(
            kb::ComposeDocument(*bundles[i], config.train_mask, *corpus_));
        if (!train.ok()) {
          worker_status[w] = train.status();
          return;
        }
        terms[i].train = std::move(*train);
        for (unsigned mask : config.probe_masks) {
          auto probe = extractor.ExtractTerms(
              kb::ComposeDocument(*bundles[i], mask, *corpus_));
          if (!probe.ok()) {
            worker_status[w] = probe.status();
            return;
          }
          terms[i].probe[mask] = std::move(*probe);
        }
      }
    });
    for (const Status& status : worker_status) QATK_RETURN_NOT_OK(status);

    kb::FeatureVocabulary& vocabulary = vocabularies[model];
    ModelFeatures mf;
    mf.train.reserve(num_bundles);
    for (unsigned mask : config.probe_masks) {
      mf.probe[mask].reserve(num_bundles);
    }
    for (size_t i = 0; i < num_bundles; ++i) {
      mf.train.push_back(
          kb::InternMentions(model, terms[i].train, &vocabulary));
      for (unsigned mask : config.probe_masks) {
        mf.probe[mask].push_back(
            kb::InternMentions(model, terms[i].probe[mask], &vocabulary));
      }
    }
    features.emplace(model, std::move(mf));
  }

  // ------------------------------------------------------------- CV loop
  // Folds are independent given the features: each fold worker builds its
  // own knowledge bases and accumulates into fold-local maps, merged in
  // fold order below. A fold-local FoldedAccuracy populates only its own
  // fold slot, so the merge is exact (integer hits plus 0.0-initialized
  // reciprocal sums) and the report matches the sequential path bit for
  // bit.
  struct FoldAccums {
    std::map<CurveKey, FoldedAccuracy> accuracy;
    std::map<CurveKey, CurveStats> stats;
  };
  std::vector<FoldAccums> fold_accums(config.folds);
  ParallelFor(threads, config.folds, [&](size_t fold) {
    FoldAccums& local = fold_accums[fold];
    auto curve = [&](const std::string& name,
                     unsigned mask) -> FoldedAccuracy& {
      CurveKey key{name, mask};
      auto it = local.accuracy.find(key);
      if (it == local.accuracy.end()) {
        it = local.accuracy
                 .emplace(key, FoldedAccuracy(config.ks, config.folds))
                 .first;
      }
      return it->second;
    };

    // Train phase: knowledge bases per model + frequency baseline.
    std::map<kb::FeatureModel, kb::KnowledgeBase> kbs;
    core::CodeFrequencyBaseline freq_baseline;
    for (size_t i = 0; i < num_bundles; ++i) {
      if (fold_of[i] == fold) continue;  // Held out.
      freq_baseline.AddObservation(bundles[i]->part_id,
                                   bundles[i]->error_code);
      for (kb::FeatureModel model : models) {
        kbs[model].AddInstance(bundles[i]->part_id, bundles[i]->error_code,
                               features[model].train[i]);
      }
    }
    // Freeze each fold's knowledge bases into CSR indexes; the fold-local
    // epoch-tagged scratch accumulators are reused across every probe of
    // the fold (no per-query clearing or allocation).
    std::map<kb::FeatureModel, kb::FrozenIndex> indexes;
    std::map<kb::FeatureModel, kb::FrozenIndex::Scratch> scratches;
    if (config.use_frozen_index) {
      for (kb::FeatureModel model : models) {
        indexes.emplace(model, kb::FrozenIndex::Build(kbs[model]));
        scratches[model];
      }
    }

    // Test phase.
    core::CandidateSetBaseline candidate_baseline;
    for (size_t i = 0; i < num_bundles; ++i) {
      if (fold_of[i] != fold) continue;
      const kb::DataBundle& bundle = *bundles[i];

      if (config.include_frequency_baseline) {
        std::vector<core::ScoredCode> ranked =
            freq_baseline.Rank(bundle.part_id);
        size_t rank = core::RankOf(ranked, bundle.error_code);
        for (unsigned mask : config.probe_masks) {
          curve("code-frequency baseline", mask).Observe(fold, rank);
        }
      }

      for (unsigned mask : config.probe_masks) {
        for (const VariantSpec& variant : config.variants) {
          const std::vector<int64_t>& probe =
              features[variant.model].probe[mask][i];
          core::RankedKnnClassifier classifier(
              {variant.similarity, config.max_nodes});

          size_t num_candidates = 0;
          std::vector<core::ScoredCode> ranked;
          auto start = Clock::now();
          if (config.use_frozen_index) {
            ranked = classifier.Classify(indexes.at(variant.model),
                                         bundle.part_id, probe,
                                         &scratches[variant.model],
                                         &num_candidates);
          } else {
            std::vector<const kb::KnowledgeNode*> candidates =
                kbs[variant.model].SelectCandidates(bundle.part_id, probe);
            ranked = classifier.Rank(probe, candidates);
            num_candidates = candidates.size();
          }
          auto end = Clock::now();

          curve(variant.Name(), mask)
              .Observe(fold, core::RankOf(ranked, bundle.error_code));
          CurveStats& cs = local.stats[CurveKey{variant.Name(), mask}];
          cs.seconds += std::chrono::duration<double>(end - start).count();
          cs.candidates += num_candidates;
          ++cs.calls;
        }

        if (config.include_candidate_baseline) {
          for (kb::FeatureModel model : models) {
            const std::vector<int64_t>& probe =
                features[model].probe[mask][i];
            std::vector<core::ScoredCode> ranked = candidate_baseline.Rank(
                kbs[model], bundle.part_id, probe);
            std::string name = std::string("candidate-set baseline (") +
                               kb::FeatureModelToString(model) + ")";
            curve(name, mask)
                .Observe(fold, core::RankOf(ranked, bundle.error_code));
          }
        }
      }
    }
  });

  // Merge fold-local accumulators in fold order.
  std::map<CurveKey, FoldedAccuracy> accuracy;
  std::map<CurveKey, CurveStats> stats;
  for (FoldAccums& local : fold_accums) {
    for (auto& [key, folded] : local.accuracy) {
      auto it = accuracy.find(key);
      if (it == accuracy.end()) {
        accuracy.emplace(key, std::move(folded));
      } else {
        QATK_RETURN_NOT_OK(it->second.Merge(folded));
      }
    }
    for (const auto& [key, cs] : local.stats) {
      CurveStats& merged = stats[key];
      merged.seconds += cs.seconds;
      merged.candidates += cs.candidates;
      merged.calls += cs.calls;
    }
  }

  // ------------------------------------------------------------- report
  EvalReport report;
  report.ks = config.ks;
  report.learnable_bundles = bundles.size();
  report.distinct_learnable_codes =
      std::set<std::string>(labels.begin(), labels.end()).size();
  double fold_sizes = 0;
  for (const auto& [key, folded] : accuracy) {
    CurveResult result;
    result.name = key.name;
    result.probe_mask = key.mask;
    for (size_t i = 0; i < config.ks.size(); ++i) {
      result.accuracy_at.push_back(folded.MeanAt(i));
    }
    result.mrr = folded.MeanReciprocalRank();
    auto stats_it = stats.find(key);
    if (stats_it != stats.end() && stats_it->second.calls > 0) {
      result.micros_per_bundle = stats_it->second.seconds * 1e6 /
                                 static_cast<double>(stats_it->second.calls);
      result.mean_candidates =
          static_cast<double>(stats_it->second.candidates) /
          static_cast<double>(stats_it->second.calls);
    }
    result.evaluated =
        static_cast<size_t>(folded.MeanFoldSize() * config.folds);
    fold_sizes = folded.MeanFoldSize();
    report.curves.push_back(std::move(result));
  }
  report.mean_test_fold_size = fold_sizes;
  return report;
}

}  // namespace qatk::eval
