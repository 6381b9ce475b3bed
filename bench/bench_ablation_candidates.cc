// A1 (ours) — candidate-set generation ablation. The paper selects
// neighbor candidates "via the indexes of the knowledge structure"
// (Fig. 5) and keeps instances in a relational database with on-the-fly
// access (§2.2, §4.3). This bench quantifies that design choice on QDB:
//   (a) in-memory (part, feature) posting lists: the frozen index's
//       per-part CSR segment,
//   (b) QDB on-the-fly candidate selection via the (part_id, feature)
//       B+-tree index,
//   (c) no candidate filtering at all: score every same-part node
//       (standard kNN's full pass).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/classifier.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "kb/features.h"
#include "kb/frozen_index.h"
#include "kb/kb_store.h"
#include "kb/knowledge_base.h"
#include "storage/database.h"

int main() {
  qatk::datagen::DomainWorld world;
  qatk::datagen::OemCorpusGenerator generator(&world);
  qatk::kb::Corpus corpus = generator.Generate();

  // Train a bag-of-concepts knowledge base on everything, probe with the
  // first 500 learnable bundles' test documents.
  qatk::kb::FeatureVocabulary vocabulary;
  qatk::kb::FeatureExtractor extractor(
      qatk::kb::FeatureModel::kBagOfConcepts, &world.taxonomy(),
      &vocabulary);
  qatk::kb::KnowledgeBase knowledge;
  std::vector<const qatk::kb::DataBundle*> learnable =
      corpus.LearnableBundles();
  for (const qatk::kb::DataBundle* bundle : learnable) {
    auto features = extractor.Extract(
        qatk::kb::ComposeDocument(*bundle, qatk::kb::kTrainSources, corpus));
    features.status().Abort();
    knowledge.AddInstance(bundle->part_id, bundle->error_code,
                          features.MoveValueUnsafe());
  }

  // Persist to QDB for the on-the-fly path.
  // Small pool: the knowledge base must not be memory-resident (the
  // paper stores instances "on disk ... with on-the-fly access").
  auto db = qatk::db::Database::OpenInMemory(192);
  db.status().Abort();
  qatk::kb::KbStore store(db->get(), "boc");
  store.SaveKnowledgeBase(knowledge, vocabulary).Abort();

  const size_t kProbes = 500;
  std::vector<std::pair<std::string, std::vector<int64_t>>> probes;
  for (size_t i = 0; i < kProbes && i < learnable.size(); ++i) {
    auto features = extractor.Extract(qatk::kb::ComposeDocument(
        *learnable[i], qatk::kb::kTestSources, corpus));
    features.status().Abort();
    probes.emplace_back(learnable[i]->part_id, features.MoveValueUnsafe());
  }

  qatk::core::RankedKnnClassifier classifier;
  using Clock = std::chrono::steady_clock;

  // (a) In-memory posting lists: accumulate over the part's segment, then
  // rank the touched nodes in knowledge-base order.
  const qatk::kb::FrozenIndex index = qatk::kb::FrozenIndex::Build(knowledge);
  qatk::kb::FrozenIndex::Scratch scratch;
  std::vector<const qatk::kb::KnowledgeNode*> touched;
  auto a0 = Clock::now();
  size_t a_candidates = 0;
  for (const auto& [part, features] : probes) {
    if (index.AccumulateShared(part, features, &scratch)) {
      std::sort(scratch.touched.begin(), scratch.touched.end());
      touched.clear();
      for (uint32_t node : scratch.touched) {
        touched.push_back(&knowledge.node(node));
      }
    } else {
      touched = knowledge.AllNodes();
    }
    a_candidates += touched.size();
    (void)classifier.Rank(features, touched);
  }
  auto a1 = Clock::now();

  // (b) QDB on-the-fly via B+-tree index.
  auto b0 = Clock::now();
  size_t b_candidates = 0;
  for (const auto& [part, features] : probes) {
    auto candidates = store.SelectCandidatesFromDb(part, features);
    candidates.status().Abort();
    b_candidates += candidates->size();
    std::vector<const qatk::kb::KnowledgeNode*> pointers;
    for (const auto& node : *candidates) pointers.push_back(&node);
    (void)classifier.Rank(features, pointers);
  }
  auto b1 = Clock::now();

  // (c) No feature filter: every node of the part (standard kNN pass).
  auto c0 = Clock::now();
  size_t c_candidates = 0;
  for (const auto& [part, features] : probes) {
    auto candidates = knowledge.NodesForPart(part);
    c_candidates += candidates.size();
    (void)classifier.Rank(features, candidates);
  }
  auto c1 = Clock::now();

  auto us = [&](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count() * 1e6 /
           static_cast<double>(probes.size());
  };
  std::printf("A1 — candidate selection ablation (%zu probes, %zu nodes)\n\n",
              probes.size(), knowledge.num_nodes());
  std::printf("%-46s %12s %12s\n", "strategy", "us/probe", "candidates");
  std::printf("%-46s %12.1f %12.1f\n",
              "(a) in-memory posting lists (Fig. 5)", us(a0, a1),
              static_cast<double>(a_candidates) / probes.size());
  std::printf("%-46s %12.1f %12.1f\n",
              "(b) QDB on-the-fly via B+-tree index", us(b0, b1),
              static_cast<double>(b_candidates) / probes.size());
  std::printf("%-46s %12.1f %12.1f\n",
              "(c) unfiltered same-part scan (std kNN)", us(c0, c1),
              static_cast<double>(c_candidates) / probes.size());
  std::printf("\nnote: with configuration-instance dedup (\u00a74.3) the same-part\n"
              "node sets are already small, so the feature filter's win shows\n"
              "in candidate-set size on sparse probes and in the DB-backed\n"
              "path, not in the in-memory scan time.\n");
  std::printf("buffer pool: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(
                  db->get()->buffer_pool()->hit_count()),
              static_cast<unsigned long long>(
                  db->get()->buffer_pool()->miss_count()),
              static_cast<unsigned long long>(
                  db->get()->buffer_pool()->eviction_count()));
  return 0;
}
