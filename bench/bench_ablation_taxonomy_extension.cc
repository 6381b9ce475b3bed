// A5 (ours) — taxonomy-extension ablation, testing the paper's §5.2.2
// conjecture: "Improving the coverage of the taxonomy used for the
// bag-of-concepts approach is therefore a worthwhile avenue to pursue."
//
// The TaxonomyExtender mines unknown, code-concentrated report tokens from
// the TRAINING split only, adds them as new symptom concepts, and the
// bag-of-concepts classifier is re-evaluated on a held-out split. Shape:
// accuracy@1 climbs from the baseline taxonomy toward (or past) the
// bag-of-words level as proposals are applied, while the classification
// cost stays in the bag-of-concepts regime.

#include <cstdio>

#include "common/strutil.h"
#include "core/classifier.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "kb/features.h"
#include "kb/knowledge_base.h"
#include "taxonomy/extender.h"
#include "taxonomy/xml.h"

namespace {

struct EvalResult {
  double a1 = 0;
  double a10 = 0;
};

EvalResult Evaluate(const qatk::tax::Taxonomy& taxonomy,
                    const qatk::kb::Corpus& corpus,
                    const std::vector<const qatk::kb::DataBundle*>& train,
                    const std::vector<const qatk::kb::DataBundle*>& test) {
  qatk::kb::FeatureVocabulary vocabulary;
  qatk::kb::FeatureExtractor extractor(
      qatk::kb::FeatureModel::kBagOfConcepts, &taxonomy, &vocabulary);
  qatk::kb::KnowledgeBase knowledge;
  for (const qatk::kb::DataBundle* bundle : train) {
    auto features = extractor.Extract(
        qatk::kb::ComposeDocument(*bundle, qatk::kb::kTrainSources, corpus));
    features.status().Abort();
    knowledge.AddInstance(bundle->part_id, bundle->error_code,
                          features.MoveValueUnsafe());
  }
  qatk::core::RankedKnnClassifier classifier;
  size_t hit1 = 0;
  size_t hit10 = 0;
  for (const qatk::kb::DataBundle* bundle : test) {
    auto features = extractor.Extract(
        qatk::kb::ComposeDocument(*bundle, qatk::kb::kTestSources, corpus));
    features.status().Abort();
    auto ranked =
        classifier.Classify(knowledge, bundle->part_id, *features);
    size_t rank = qatk::core::RankOf(ranked, bundle->error_code);
    if (rank == 1) ++hit1;
    if (rank >= 1 && rank <= 10) ++hit10;
  }
  EvalResult result;
  result.a1 = static_cast<double>(hit1) / static_cast<double>(test.size());
  result.a10 = static_cast<double>(hit10) / static_cast<double>(test.size());
  return result;
}

}  // namespace

int main() {
  qatk::datagen::DomainWorld world;
  qatk::datagen::OemCorpusGenerator generator(&world);
  qatk::kb::Corpus corpus = generator.Generate();
  auto learnable = corpus.LearnableBundles();

  std::vector<const qatk::kb::DataBundle*> train;
  std::vector<const qatk::kb::DataBundle*> test;
  for (size_t i = 0; i < learnable.size(); ++i) {
    (i % 5 == 0 ? test : train).push_back(learnable[i]);
  }

  // Mine proposals from the training split only.
  qatk::tax::TaxonomyExtender::Options mine_options;
  mine_options.min_frequency = 6;
  mine_options.min_concentration = 0.6;
  mine_options.max_proposals = 4000;
  qatk::tax::TaxonomyExtender extender(world.taxonomy(), mine_options);
  for (const qatk::kb::DataBundle* bundle : train) {
    extender.AddDocument(
        qatk::kb::ComposeDocument(*bundle, qatk::kb::kTrainSources, corpus),
        bundle->error_code);
  }
  auto proposals = extender.Propose();

  std::printf("A5 — taxonomy extension ablation (train %zu / test %zu "
              "bundles; %zu mined proposals)\n\n",
              train.size(), test.size(), proposals.size());
  std::printf("%-34s %8s %8s\n", "taxonomy", "A@1", "A@10");

  EvalResult baseline = Evaluate(world.taxonomy(), corpus, train, test);
  std::printf("%-34s %8s %8s\n", "original (coverage gap)",
              qatk::FormatDouble(baseline.a1, 3).c_str(),
              qatk::FormatDouble(baseline.a10, 3).c_str());

  for (size_t take : {200u, 1000u, 4000u}) {
    // Rebuild an extended copy via XML round trip (also exercising the
    // resource-maintenance path an analyst would use).
    auto extended = qatk::tax::TaxonomyFromXml(
        qatk::tax::TaxonomyToXml(world.taxonomy()));
    extended.status().Abort();
    std::vector<qatk::tax::SynonymProposal> slice(
        proposals.begin(),
        proposals.begin() + std::min<size_t>(take, proposals.size()));
    auto added = extender.Apply(slice, &extended.ValueOrDie(), 50000, 2);
    added.status().Abort();
    EvalResult result = Evaluate(*extended, corpus, train, test);
    std::string label(1, '+');
    label += std::to_string(*added);
    label += " mined concepts";
    std::printf("%-34s %8s %8s\n", label.c_str(),
                qatk::FormatDouble(result.a1, 3).c_str(),
                qatk::FormatDouble(result.a10, 3).c_str());
  }
  std::printf("\n(paper §5.2.2: adapting the taxonomy to the data source "
              "is the path to an accurate AND feasible domain-specific "
              "classifier)\n");
  return 0;
}
