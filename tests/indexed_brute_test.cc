// Adversarial equivalence battery for the indexed top-k scoring path: the
// frozen-index accumulate-and-select scorer must be bit-identical to the
// brute-force classifier — same codes, same (score desc, node asc) order,
// same score doubles, same candidate count — over corpora built to stress
// every way a top-k selection can go wrong: tie-heavy score distributions,
// scores landing exactly on the k-th best, singleton/empty postings and
// feature sets, posting runs spanning hundreds of nodes, and unknown-part
// fallbacks whose zero-score tail is filled in node-id order. A node-level
// half compares SelectTopNodes' (score, node) list itself with a full sort
// of every candidate, so a wrong node with a kept node's code and score
// cannot hide behind the code dedup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/classifier.h"
#include "core/similarity.h"
#include "kb/frozen_index.h"
#include "kb/knowledge_base.h"
#include "numbered.h"

namespace qatk {
namespace {

constexpr core::SimilarityMeasure kAllMeasures[] = {
    core::SimilarityMeasure::kJaccard,
    core::SimilarityMeasure::kOverlap,
    core::SimilarityMeasure::kDice,
    core::SimilarityMeasure::kCosine,
};

/// Top-k budgets every probe is checked at; 25 is the paper's value.
constexpr size_t kAllK[] = {1, 3, 5, 10, 25};

std::vector<int64_t> RandomFeatureSet(Rng* rng, size_t max_size,
                                      int64_t domain) {
  std::set<int64_t> unique;
  const size_t size = rng->NextBounded(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    unique.insert(static_cast<int64_t>(rng->NextBounded(domain)));
  }
  return {unique.begin(), unique.end()};
}

/// Bit-exact comparison: equal codes and equal score *bits* at every rank.
void ExpectSameRanking(const std::vector<core::ScoredCode>& expected,
                       const std::vector<core::ScoredCode>& actual,
                       core::SimilarityMeasure measure, size_t k) {
  ASSERT_EQ(expected.size(), actual.size())
      << "rank-length mismatch, measure="
      << core::SimilarityMeasureToString(measure) << " k=" << k;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].error_code, actual[i].error_code)
        << "code mismatch at rank " << i
        << ", measure=" << core::SimilarityMeasureToString(measure)
        << " k=" << k;
    ASSERT_EQ(0, std::memcmp(&expected[i].score, &actual[i].score,
                             sizeof(double)))
        << "score bits mismatch at rank " << i
        << ", measure=" << core::SimilarityMeasureToString(measure)
        << " k=" << k << ", expected=" << expected[i].score
        << ", actual=" << actual[i].score;
  }
}

/// Indexed vs brute force for one probe at one k across all measures,
/// including the candidate count the brute-force path would have scored.
void ExpectIndexedMatchesBrute(const kb::KnowledgeBase& knowledge,
                               const kb::FrozenIndex& index,
                               kb::FrozenIndex::Scratch* scratch,
                               const std::string& part_id,
                               const std::vector<int64_t>& features,
                               size_t k) {
  const size_t brute_candidates =
      knowledge.SelectCandidates(part_id, features).size();
  for (core::SimilarityMeasure measure : kAllMeasures) {
    core::RankedKnnClassifier classifier({measure, k});
    size_t num_candidates = 0;
    std::vector<core::ScoredCode> indexed =
        classifier.Classify(index, part_id, features, scratch,
                            &num_candidates);
    ASSERT_EQ(brute_candidates, num_candidates)
        << "candidate-count mismatch, part=" << part_id << " k=" << k;
    ExpectSameRanking(classifier.Classify(knowledge, part_id, features),
                      indexed, measure, k);
  }
}

/// Indexed vs brute force for one probe at every k in kAllK.
void ExpectIndexedMatchesBruteAllK(const kb::KnowledgeBase& knowledge,
                                   const kb::FrozenIndex& index,
                                   kb::FrozenIndex::Scratch* scratch,
                                   const std::string& part_id,
                                   const std::vector<int64_t>& features) {
  for (size_t k : kAllK) {
    ExpectIndexedMatchesBrute(knowledge, index, scratch, part_id, features,
                              k);
  }
}

/// ≥200 seeded corpora with small feature domains and hundreds of
/// instances in few parts: near-every pair of nodes collides on features,
/// so scores are tie-heavy and posting runs are long and dense.
TEST(IndexedBruteEquivalenceTest, AdversarialRandomizedCorpora) {
  Rng rng(0x9121BADF00DULL);
  kb::FrozenIndex::Scratch scratch;  // Deliberately shared across corpora.
  const size_t kCorpora = 220;
  for (size_t c = 0; c < kCorpora; ++c) {
    const size_t num_parts = 1 + rng.NextBounded(3);
    const size_t num_codes = 1 + rng.NextBounded(8);
    const int64_t feature_domain =
        2 + static_cast<int64_t>(rng.NextBounded(11));
    const size_t num_instances = 40 + rng.NextBounded(201);
    kb::KnowledgeBase knowledge;
    for (size_t i = 0; i < num_instances; ++i) {
      knowledge.AddInstance(
          Numbered("P", rng.NextBounded(num_parts)),
          Numbered("E", rng.NextBounded(num_codes)),
          RandomFeatureSet(&rng, 8, feature_domain));
    }
    kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);

    for (size_t p = 0; p < 8; ++p) {
      const std::string part_id =
          rng.NextBernoulli(0.25)
              ? Numbered("GHOST", rng.NextBounded(3))
              : Numbered("P", rng.NextBounded(num_parts));
      const std::vector<int64_t> features =
          p % 5 == 0 ? std::vector<int64_t>{}
                     : RandomFeatureSet(&rng, 6, feature_domain);
      ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, part_id,
                                    features);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "corpus " << c << " probe " << p << " diverged";
      }
    }
  }
}

/// Scores landing exactly on the k-th best: more equal-score nodes than
/// the top list holds, so only the node-id tie-break decides who is kept.
TEST(IndexedBruteEquivalenceTest, ScoresExactlyOnTieKeepIdTieBreak) {
  kb::KnowledgeBase knowledge;
  // 150 nodes with identical feature sets (distinct codes, so nothing
  // merges): every score identical.
  for (int i = 0; i < 150; ++i) {
    knowledge.AddInstance("P0", Numbered("E", i), {1, 2, 3});
  }
  kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);
  kb::FrozenIndex::Scratch scratch;
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0", {1, 2, 3});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0", {1, 3});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0", {2});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "GHOST", {1});
}

/// Singleton and empty postings: parts with one node, nodes with no
/// features, features with one posting, probes matching nothing.
TEST(IndexedBruteEquivalenceTest, SingletonAndEmptyPostings) {
  kb::KnowledgeBase knowledge;
  knowledge.AddInstance("P0", "E0", {});     // Featureless node.
  knowledge.AddInstance("P1", "E1", {7});    // Singleton posting.
  for (int i = 0; i < 130; ++i) {            // One long-run part besides.
    knowledge.AddInstance("P2", Numbered("E", i % 4), {7, 9, i % 3});
  }
  kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);
  kb::FrozenIndex::Scratch scratch;
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0", {7});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P1", {7});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P2", {7, 9});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P2", {});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P2", {1000});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "GHOST", {7});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "GHOST", {});
}

/// 30 strong contenders behind 500 hopeless light nodes that share one
/// probe feature with them: one 530-posting run, the top k decided among
/// the strong nodes only.
TEST(IndexedBruteEquivalenceTest, StrongContendersAmongHopelessNodes) {
  kb::KnowledgeBase knowledge;
  const std::vector<int64_t> probe = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int i = 0; i < 30; ++i) {  // Full-overlap contenders, |B| = 10.
    knowledge.AddInstance("P0", Numbered("HEAVY", i), probe);
  }
  for (int i = 0; i < 500; ++i) {  // |B| = 2, share one probe feature.
    knowledge.AddInstance("P0", Numbered("LIGHT", i),
                          {0, 100 + i});
  }
  kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);
  kb::FrozenIndex::Scratch scratch;
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0", probe);
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0", {0});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "P0",
                                {0, 100, 101});
  ExpectIndexedMatchesBruteAllK(knowledge, index, &scratch, "GHOST", probe);
}

/// Unknown-part fallback with k larger than the touched set and larger
/// than the whole index: the zero-score tail must hold the lowest-id
/// untouched nodes, and a k past num_nodes must rank every node.
TEST(IndexedBruteEquivalenceTest, UnknownPartFillsZeroTailInNodeOrder) {
  kb::KnowledgeBase knowledge;
  // Nodes 0..11, distinct codes; probe {5} touches only nodes 3 and 8.
  for (int i = 0; i < 12; ++i) {
    const std::vector<int64_t> features =
        i == 3 || i == 8 ? std::vector<int64_t>{5, 100 + i}
                         : std::vector<int64_t>{200 + i};
    knowledge.AddInstance(Numbered("P", i % 3),
                          Numbered("E", i), features);
  }
  knowledge.AddInstance("P0", "EMPTY", {});  // Node 12: no features at all.
  kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);
  ASSERT_EQ(index.num_nodes(), 13u);
  kb::FrozenIndex::Scratch scratch;

  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{13},
                   size_t{14}, size_t{100}}) {
    ExpectIndexedMatchesBrute(knowledge, index, &scratch, "GHOST", {5}, k);
    ExpectIndexedMatchesBrute(knowledge, index, &scratch, "GHOST", {}, k);
    ExpectIndexedMatchesBrute(knowledge, index, &scratch, "GHOST", {999}, k);
  }

  // Spelled out at k = 5: the two touched nodes first, then the three
  // lowest-id untouched nodes at score 0.
  core::RankedKnnClassifier classifier({core::SimilarityMeasure::kJaccard, 5});
  ASSERT_FALSE(classifier.SelectTopNodes(index, "GHOST", {5}, &scratch));
  std::vector<uint32_t> nodes;
  for (const auto& item : scratch.top) nodes.push_back(item.second);
  EXPECT_EQ(nodes, (std::vector<uint32_t>{3, 8, 0, 1, 2}));
  EXPECT_GT(scratch.top[1].first, 0.0);
  EXPECT_EQ(scratch.top[2].first, 0.0);

  // k past num_nodes: every node is ranked, the featureless one included.
  core::RankedKnnClassifier everything(
      {core::SimilarityMeasure::kJaccard, 100});
  size_t num_candidates = 0;
  everything.SelectTopNodes(index, "GHOST", {5}, &scratch, &num_candidates);
  EXPECT_EQ(num_candidates, 13u);
  ASSERT_EQ(scratch.top.size(), 13u);
  EXPECT_EQ(scratch.top.back().second, 12u);
}

/// One (score, node) entry of a node-level top list.
using NodeItem = std::pair<double, uint32_t>;

/// The node-level oracle: every candidate of the probe, found and scored
/// without the index (a part's nodes sharing >= 1 feature for a known
/// part, every node for an unknown one), fully sorted by
/// (score desc, node asc). `*touched` receives the number of candidates
/// sharing >= 1 feature.
std::vector<NodeItem> SortedCandidates(const kb::KnowledgeBase& knowledge,
                                       core::SimilarityMeasure measure,
                                       const std::string& part_id,
                                       const std::vector<int64_t>& features,
                                       size_t* touched) {
  const bool known = knowledge.HasPart(part_id);
  std::vector<NodeItem> all;
  *touched = 0;
  for (size_t i = 0; i < knowledge.num_nodes(); ++i) {
    const kb::KnowledgeNode& node = knowledge.node(i);
    const bool shares =
        core::IntersectionSize(features, node.features) > 0;
    *touched += shares;
    if (known && (node.part_id != part_id || !shares)) continue;
    all.emplace_back(core::Similarity(measure, features, node.features),
                     static_cast<uint32_t>(i));
  }
  std::sort(all.begin(), all.end(), [](const NodeItem& a, const NodeItem& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  return all;
}

/// SelectTopNodes against the oracle for one probe under every measure,
/// at k in {0, 1, touched - 1, touched, touched + 1, 25, 100,
/// num_nodes() + 1}: the same known-part answer and candidate count, and
/// the oracle's first k entries with the same score bits and node ids.
void ExpectTopNodesMatchFullSort(const kb::KnowledgeBase& knowledge,
                                 const kb::FrozenIndex& index,
                                 kb::FrozenIndex::Scratch* scratch,
                                 const std::string& part_id,
                                 const std::vector<int64_t>& features) {
  for (core::SimilarityMeasure measure : kAllMeasures) {
    size_t touched = 0;
    const std::vector<NodeItem> sorted =
        SortedCandidates(knowledge, measure, part_id, features, &touched);
    std::vector<size_t> ks = {0,   1,   touched, touched + 1,
                              25,  100, index.num_nodes() + 1};
    if (touched > 0) ks.push_back(touched - 1);
    for (size_t k : ks) {
      core::RankedKnnClassifier classifier({measure, k});
      size_t num_candidates = 0;
      ASSERT_EQ(knowledge.HasPart(part_id),
                classifier.SelectTopNodes(index, part_id, features, scratch,
                                          &num_candidates));
      ASSERT_EQ(sorted.size(), num_candidates) << "part=" << part_id;
      const std::vector<NodeItem>& top = scratch->top;
      ASSERT_EQ(std::min(k, sorted.size()), top.size())
          << "measure=" << core::SimilarityMeasureToString(measure)
          << " k=" << k << " part=" << part_id;
      for (size_t i = 0; i < top.size(); ++i) {
        ASSERT_EQ(sorted[i].second, top[i].second)
            << "node mismatch at rank " << i
            << ", measure=" << core::SimilarityMeasureToString(measure)
            << " k=" << k << " part=" << part_id;
        ASSERT_EQ(0, std::memcmp(&sorted[i].first, &top[i].first,
                                 sizeof(double)))
            << "score bits mismatch at rank " << i
            << ", measure=" << core::SimilarityMeasureToString(measure)
            << " k=" << k << ", expected=" << sorted[i].first
            << ", actual=" << top[i].first;
      }
    }
  }
}

/// The node-level list, not just the deduped codes: a selection that kept
/// a wrong node with the same code and score would pass the code-level
/// battery above. Tie-heavy corpora as in AdversarialRandomizedCorpora,
/// with few codes, so most rival nodes share a code with a kept one.
TEST(IndexedBruteEquivalenceTest, TopNodesMatchFullSortOnTieHeavyCorpora) {
  Rng rng(0x70B40DE5ULL);
  kb::FrozenIndex::Scratch scratch;  // Deliberately shared across corpora.
  const size_t kCorpora = 80;
  for (size_t c = 0; c < kCorpora; ++c) {
    const size_t num_parts = 1 + rng.NextBounded(3);
    const size_t num_codes = 1 + rng.NextBounded(4);
    const int64_t feature_domain =
        2 + static_cast<int64_t>(rng.NextBounded(11));
    const size_t num_instances = 40 + rng.NextBounded(201);
    kb::KnowledgeBase knowledge;
    for (size_t i = 0; i < num_instances; ++i) {
      knowledge.AddInstance(
          Numbered("P", rng.NextBounded(num_parts)),
          Numbered("E", rng.NextBounded(num_codes)),
          RandomFeatureSet(&rng, 8, feature_domain));
    }
    kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);

    for (size_t p = 0; p < 8; ++p) {
      const std::string part_id =
          p % 4 == 3 ? "GHOST"
                     : Numbered("P", rng.NextBounded(num_parts));
      const std::vector<int64_t> features =
          p % 5 == 0 ? std::vector<int64_t>{}
                     : RandomFeatureSet(&rng, 6, feature_domain);
      ExpectTopNodesMatchFullSort(knowledge, index, &scratch, part_id,
                                  features);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "corpus " << c << " probe " << p << " diverged";
      }
    }
  }
}

/// Every candidate scores the same, so only node ids decide, and the
/// nodes are touched out of id order: node i holds the single feature
/// i % 7, so the probe {0..6} touches 0, 7, 14, ..., then 1, 8, ....
TEST(IndexedBruteEquivalenceTest, AllScoresEqualOnlyNodeIdsDecide) {
  kb::KnowledgeBase knowledge;
  for (int i = 0; i < 140; ++i) {
    knowledge.AddInstance("P0", Numbered("E", i % 3), {i % 7});
  }
  kb::FrozenIndex index = kb::FrozenIndex::Build(knowledge);
  kb::FrozenIndex::Scratch scratch;
  const std::vector<int64_t> probe = {0, 1, 2, 3, 4, 5, 6};
  ExpectTopNodesMatchFullSort(knowledge, index, &scratch, "P0", probe);
  ExpectTopNodesMatchFullSort(knowledge, index, &scratch, "P0", {3});
  // Unknown part: every node scores 0, the zero fill alone decides.
  ExpectTopNodesMatchFullSort(knowledge, index, &scratch, "GHOST", {});
  ExpectTopNodesMatchFullSort(knowledge, index, &scratch, "GHOST", {99});
  // Touched nodes tie above the zero-score rest.
  ExpectTopNodesMatchFullSort(knowledge, index, &scratch, "GHOST", {5});

  // Spelled out at k = 4: the four lowest ids among the equal scores,
  // though the probe touched node 7 before node 1.
  core::RankedKnnClassifier classifier({core::SimilarityMeasure::kJaccard, 4});
  ASSERT_TRUE(classifier.SelectTopNodes(index, "P0", probe, &scratch));
  std::vector<uint32_t> nodes;
  for (const NodeItem& item : scratch.top) nodes.push_back(item.second);
  EXPECT_EQ(nodes, (std::vector<uint32_t>{0, 1, 2, 3}));
}

/// One published model in a confirm sequence: the knowledge base and the
/// index served with it.
struct Published {
  kb::KnowledgeBase knowledge;
  kb::FrozenIndex index;
};

/// The confirm step of the service: copy the published model (sharing
/// every part), add the instance, rebuild the one touched part's segment.
Published Confirm(const Published& current, const std::string& part_id,
                  const std::string& code, std::vector<int64_t> features) {
  Published next = current;
  next.knowledge.AddInstance(part_id, code, std::move(features));
  next.index.RebuildPart(next.knowledge, part_id);
  return next;
}

/// The served index must be indistinguishable from a from-scratch Build
/// of the same knowledge base, and both must match brute force.
void ExpectServedMatchesRebuild(const Published& served,
                                kb::FrozenIndex::Scratch* scratch,
                                const std::vector<std::string>& part_ids,
                                const std::vector<std::vector<int64_t>>& probes) {
  const kb::FrozenIndex rebuilt = kb::FrozenIndex::Build(served.knowledge);
  ASSERT_EQ(served.index.num_nodes(), rebuilt.num_nodes());
  ASSERT_EQ(served.index.num_parts(), rebuilt.num_parts());
  ASSERT_EQ(served.index.num_postings(), rebuilt.num_postings());
  ASSERT_EQ(served.index.memory_bytes(), rebuilt.memory_bytes());
  for (const std::string& part_id : part_ids) {
    for (const std::vector<int64_t>& features : probes) {
      for (size_t k : {size_t{1}, size_t{5}, size_t{25},
                       served.index.num_nodes() + 1}) {
        ExpectIndexedMatchesBrute(served.knowledge, served.index, scratch,
                                  part_id, features, k);
        for (core::SimilarityMeasure measure : kAllMeasures) {
          core::RankedKnnClassifier classifier({measure, k});
          kb::FrozenIndex::Scratch fresh;
          ExpectSameRanking(
              classifier.Classify(rebuilt, part_id, features, &fresh),
              classifier.Classify(served.index, part_id, features, scratch),
              measure, k);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// Seeded confirm sequences over adversarial corpora: every step is a new
/// node, a merge into an existing node, a new part, a new code or an
/// empty feature set. After each step the served (incrementally rebuilt)
/// index answers every probe — known parts, unknown parts, k past the
/// touched set — exactly like a from-scratch Build and like brute force,
/// and the predecessor it was copied from still answers as it did.
TEST(IndexedBruteEquivalenceTest, ConfirmSequencesMatchFromScratchBuild) {
  Rng rng(0xC0F1A5EEDULL);
  kb::FrozenIndex::Scratch scratch;  // Deliberately shared across models.
  const size_t kSequences = 24;
  const size_t kSteps = 12;
  for (size_t s = 0; s < kSequences; ++s) {
    const size_t num_parts = 1 + rng.NextBounded(4);
    size_t num_codes = 1 + rng.NextBounded(6);
    const int64_t feature_domain =
        2 + static_cast<int64_t>(rng.NextBounded(11));
    Published current;
    const size_t num_instances = rng.NextBounded(60);  // 0 = empty base.
    for (size_t i = 0; i < num_instances; ++i) {
      current.knowledge.AddInstance(
          Numbered("P", rng.NextBounded(num_parts)),
          Numbered("E", rng.NextBounded(num_codes)),
          RandomFeatureSet(&rng, 8, feature_domain));
    }
    current.index = kb::FrozenIndex::Build(current.knowledge);
    size_t extra_parts = 0;

    for (size_t step = 0; step < kSteps; ++step) {
      std::string part_id =
          Numbered("P", rng.NextBounded(num_parts + extra_parts));
      std::string code = Numbered("E", rng.NextBounded(num_codes));
      std::vector<int64_t> features =
          RandomFeatureSet(&rng, 8, feature_domain);
      switch (step % 5) {
        case 0:  // New node: a feature no node has yet.
          features.push_back(feature_domain + static_cast<int64_t>(step));
          break;
        case 1:  // Merge: repeat an existing configuration verbatim.
          if (current.knowledge.num_nodes() > 0) {
            const kb::KnowledgeNode& node = current.knowledge.node(
                rng.NextBounded(current.knowledge.num_nodes()));
            part_id = node.part_id;
            code = node.error_code;
            features = node.features;
          }
          break;
        case 2:  // New part.
          part_id = Numbered("P", num_parts + extra_parts++);
          break;
        case 3:  // New code.
          code = Numbered("E", num_codes++);
          break;
        case 4:  // Empty feature set.
          features.clear();
          break;
      }
      const size_t nodes_before = current.knowledge.num_nodes();
      Published next = Confirm(current, part_id, code, features);
      if (step % 5 == 1 && nodes_before > 0) {
        ASSERT_EQ(next.knowledge.num_nodes(), nodes_before) << "no merge";
      }

      std::vector<std::string> part_ids = {"GHOST"};
      for (size_t p = 0; p < num_parts + extra_parts; ++p) {
        part_ids.push_back(Numbered("P", p));
      }
      std::vector<std::vector<int64_t>> probes = {{}, features};
      for (int p = 0; p < 3; ++p) {
        probes.push_back(RandomFeatureSet(&rng, 6, feature_domain + 12));
      }
      ExpectServedMatchesRebuild(next, &scratch, part_ids, probes);
      // The predecessor shares all but one part with `next`; it must not
      // have seen the confirm.
      ExpectServedMatchesRebuild(current, &scratch, part_ids, probes);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "sequence " << s << " step " << step << " (kind "
               << step % 5 << ", part " << part_id << ") diverged";
      }
      current = std::move(next);
    }
  }
}

}  // namespace
}  // namespace qatk
