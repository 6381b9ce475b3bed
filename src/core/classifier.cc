#include "core/classifier.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qatk::core {

namespace {

/// Pipeline trace spans (DESIGN.md §11): candidate selection + shared-count
/// accumulation ("score") and top-k heap selection + code dedup ("rank").
/// These stages run in single-digit microseconds, so they use the 1/64
/// SampledTimer — an always-on span costs ~5-10% of the whole query.
obs::Histogram* ScoreStageHistogram() {
  static obs::Histogram* hist = obs::Registry::Global().GetHistogram(
      "qatk_pipeline_stage_us{stage=\"score\"}");
  return hist;
}

obs::Histogram* RankStageHistogram() {
  static obs::Histogram* hist = obs::Registry::Global().GetHistogram(
      "qatk_pipeline_stage_us{stage=\"rank\"}");
  return hist;
}

/// (score, original node id) heap item. BetterItem is the exact strict
/// total order of the result contract — (score desc, node asc) — which is
/// what makes bounded-heap selection independent of offer order.
using Item = std::pair<double, uint32_t>;

bool BetterItem(const Item& a, const Item& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

/// Min-heap (worst kept item at front) bounded at k under BetterItem.
void OfferItem(std::vector<Item>* heap, size_t k, const Item& item) {
  if (heap->size() < k) {
    heap->push_back(item);
    std::push_heap(heap->begin(), heap->end(), BetterItem);
  } else if (BetterItem(item, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), BetterItem);
    heap->back() = item;
    std::push_heap(heap->begin(), heap->end(), BetterItem);
  }
}

}  // namespace

std::vector<ScoredCode> RankedKnnClassifier::Rank(
    const std::vector<int64_t>& probe_features,
    const std::vector<const kb::KnowledgeNode*>& candidates) const {
  // Score every candidate node (§4.3: "we compute a pairwise similarity
  // score for each candidate node with reference to the current data
  // bundle").
  struct ScoredNode {
    double score;
    size_t order;  // Arrival order for deterministic ties.
    const kb::KnowledgeNode* node;
  };
  std::vector<ScoredNode> scored;
  scored.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    double score = Similarity(config_.similarity, probe_features,
                              candidates[i]->features);
    scored.push_back({score, i, candidates[i]});
  }
  // Partial sort: only the best max_nodes matter.
  size_t keep = std::min(config_.max_nodes, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const ScoredNode& a, const ScoredNode& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.order < b.order;
                    });
  scored.resize(keep);

  // "For each of these error codes, we assign an error code with
  // associated score": distinct codes keep the score of their best node.
  std::vector<ScoredCode> ranked;
  std::unordered_set<std::string> seen;
  for (const ScoredNode& s : scored) {
    if (seen.insert(s.node->error_code).second) {
      ranked.push_back({s.node->error_code, s.score});
    }
  }
  return ranked;
}

std::vector<ScoredCode> RankedKnnClassifier::Classify(
    const kb::KnowledgeBase& knowledge, const std::string& part_id,
    const std::vector<int64_t>& features) const {
  return Rank(features, knowledge.SelectCandidates(part_id, features));
}

bool RankedKnnClassifier::SelectTopNodes(const kb::FrozenIndex& index,
                                         const std::string& part_id,
                                         const std::vector<int64_t>& features,
                                         kb::FrozenIndex::Scratch* scratch,
                                         size_t* num_candidates) const {
  bool known_part;
  {
    obs::SampledTimer score_span(ScoreStageHistogram());
    known_part = index.AccumulateShared(part_id, features, scratch);
    if (!known_part) index.AccumulateSharedAllNodes(features, scratch);
  }
  if (num_candidates != nullptr) {
    *num_candidates = known_part ? scratch->touched.size() : index.num_nodes();
  }
  if (config_.max_nodes == 0) {
    scratch->heap.clear();
    return known_part;
  }
  obs::SampledTimer rank_span(RankStageHistogram());

  // An Item is (score, node). In Rank, candidates arrive in ascending
  // node-index order on both paths (part scan / AllNodes), so its
  // (score desc, arrival order asc) comparison is the total order
  // (score desc, node asc) — which makes the bounded-heap selection here
  // pick the exact same top max_nodes. The heap lives in the scratch so
  // repeated queries never allocate.
  const size_t na = features.size();
  std::vector<Item>& heap = scratch->heap;
  heap.clear();
  auto offer = [&](uint32_t node, uint32_t shared) {
    OfferItem(&heap, config_.max_nodes,
              {SimilarityFromCounts(config_.similarity, shared, na,
                                    index.node_feature_count(node)),
               node});
  };
  for (uint32_t node : scratch->touched) offer(node, scratch->shared[node]);
  if (!known_part) {
    // Unknown part: every node is a candidate (§4.3), and an untouched one
    // scores exactly 0. Every touched node scores > 0 (shared >= 1), so
    // filling the tail with untouched nodes in ascending node order is
    // exact, and the fill stops once the heap is full — any later zero
    // loses the node-id tie-break against one already in.
    const uint32_t n = static_cast<uint32_t>(index.num_nodes());
    for (uint32_t node = 0; heap.size() < config_.max_nodes && node < n;
         ++node) {
      if (kb::FrozenIndex::SharedCount(*scratch, node) == 0) offer(node, 0);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), BetterItem);  // Best first.
  return known_part;
}

std::vector<ScoredCode> RankedKnnClassifier::Classify(
    const kb::FrozenIndex& index, const std::string& part_id,
    const std::vector<int64_t>& features, kb::FrozenIndex::Scratch* scratch,
    size_t* num_candidates) const {
  std::vector<ScoredCode> ranked;
  ranked.reserve(config_.max_nodes);
  ClassifyInto(index, part_id, features, config_.max_nodes, scratch, &ranked,
               num_candidates);
  return ranked;
}

void RankedKnnClassifier::ClassifyInto(const kb::FrozenIndex& index,
                                       const std::string& part_id,
                                       const std::vector<int64_t>& features,
                                       size_t max_codes,
                                       kb::FrozenIndex::Scratch* scratch,
                                       std::vector<ScoredCode>* ranked,
                                       size_t* num_candidates) const {
  SelectTopNodes(index, part_id, features, scratch, num_candidates);
  // Distinct codes keep the score of their best node. At most max_nodes
  // (25) survivors, so a linear scan over seen code ids beats hashing.
  std::vector<uint32_t>& seen = scratch->seen_codes;
  seen.clear();
  size_t count = 0;
  for (const Item& item : scratch->heap) {
    if (count == max_codes) break;
    const uint32_t code = index.node_code_id(item.second);
    if (std::find(seen.begin(), seen.end(), code) != seen.end()) continue;
    seen.push_back(code);
    if (count == ranked->size()) ranked->emplace_back();
    ScoredCode& scored = (*ranked)[count++];
    scored.error_code.assign(index.node_error_code(item.second));
    scored.score = item.first;
  }
  ranked->resize(count);
}

size_t RankOf(const std::vector<ScoredCode>& ranked,
              const std::string& truth) {
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].error_code == truth) return i + 1;
  }
  return 0;
}

}  // namespace qatk::core
