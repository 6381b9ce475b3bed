#include "core/classifier.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qatk::core {

namespace {

/// Pipeline trace spans (DESIGN.md §11): candidate selection + shared-count
/// accumulation ("score") and top-k selection + code dedup ("rank").
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

/// Sort key of one candidate: the score's IEEE-754 bits above the
/// complemented node id, so that one unsigned compare decides the exact
/// total order of the result contract, (score desc, node asc): the
/// greater key is the better candidate. SimilarityFromCounts returns a
/// finite double >= +0.0 under every measure (never NaN or -0.0), and the
/// bits of such doubles order as their values do. Node ids are distinct,
/// so no two keys tie, and which keys are the best k does not depend on
/// the order they were scored in.
using Key = unsigned __int128;

Key MakeKey(double score, uint32_t node) {
  return static_cast<Key>(std::bit_cast<uint64_t>(score)) << 32 |
         static_cast<uint32_t>(~node);
}

/// Moves the best `k` keys of [first, last) to its front, in no particular
/// order (0 < k < last - first); `buffer` has room for last - first keys.
/// Quickselect: each round partitions the range that still holds the k-th
/// boundary around the median of three of its keys. The partition reads
/// the range once and writes every key to both ends of `buffer`; the
/// front end advances when the key beats the pivot and the back end when
/// it does not, each by a 0/1 compare result, so the loop has no branch
/// that depends on a score. A round budget of twice the range's bit width
/// hands a pathological pivot sequence to std::nth_element, which is
/// never quadratic.
void SelectBest(Key* first, Key* last, size_t k, Key* buffer) {
  Key* const nth = first + k;
  for (int budget = 2 * std::bit_width(static_cast<size_t>(last - first));
       first < nth && nth < last; --budget) {
    if (budget == 0) {
      std::nth_element(first, nth, last, std::greater<Key>());
      return;
    }
    Key* a = first;
    Key* b = first + (last - first) / 2;
    Key* c = last - 1;
    if (*b > *a) std::swap(a, b);
    if (*c > *b) b = *c > *a ? a : c;
    std::swap(*b, last[-1]);  // Park the median of the three at the end.
    const Key pivot = last[-1];
    Key* front = buffer;
    Key* back = buffer + (last - first) - 1;
    for (const Key* it = first; it != last - 1; ++it) {
      const Key key = *it;
      const bool better = key > pivot;
      *front = key;
      *back = key;
      front += better;
      back -= !better;
    }
    *front = pivot;  // front == back: between the two groups.
    std::copy(buffer, buffer + (last - first), first);
    Key* const pivot_at = first + (front - buffer);
    if (pivot_at < nth) {
      first = pivot_at + 1;
    } else {
      last = pivot_at;
    }
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
    scratch->top.clear();
    return known_part;
  }
  obs::SampledTimer rank_span(RankStageHistogram());

  // Score every candidate into a flat array of keys. In Rank, candidates
  // arrive in ascending node-index order on both paths (part scan /
  // AllNodes), so its (score desc, arrival order asc) comparison is the
  // total order (score desc, node asc) that the keys encode: selecting and
  // ordering by key here picks the exact same top max_nodes. The buffers
  // live in the scratch so repeated queries never allocate.
  const size_t na = features.size();
  std::vector<Key>& keys = scratch->keys;
  keys.clear();
  for (uint32_t node : scratch->touched) {
    keys.push_back(MakeKey(
        SimilarityFromCounts(config_.similarity, scratch->shared[node], na,
                             index.node_feature_count(node)),
        node));
  }
  if (!known_part) {
    // Unknown part: every node is a candidate (§4.3), and an untouched one
    // scores exactly 0. Every touched node scores > 0 (shared >= 1), so
    // only the max_nodes lowest-id untouched nodes can make the cut — any
    // later zero loses the node-id tie-break against one already in.
    const uint32_t n = static_cast<uint32_t>(index.num_nodes());
    size_t zeros = 0;
    for (uint32_t node = 0; zeros < config_.max_nodes && node < n; ++node) {
      if (kb::FrozenIndex::SharedCount(*scratch, node) == 0) {
        keys.push_back(MakeKey(0.0, node));
        ++zeros;
      }
    }
  }
  const size_t k = std::min(config_.max_nodes, keys.size());
  if (k < keys.size()) {
    std::vector<Key>& buffer = scratch->partition;
    if (buffer.size() < keys.size()) buffer.resize(keys.size());
    SelectBest(keys.data(), keys.data() + keys.size(), k, buffer.data());
  }
  // Order the kept k best-first: a key's rank is the number of kept keys
  // greater than it, a sum of 0/1 compares with no branch on the scores.
  // No two keys tie, so the ranks are a permutation of [0, k). That is
  // O(k^2) compares, cheap at the k this ranks with (25 served, at most
  // 100 in the ablations).
  std::vector<std::pair<double, uint32_t>>& top = scratch->top;
  top.resize(k);
  for (size_t i = 0; i < k; ++i) {
    const Key key = keys[i];
    size_t rank = 0;
    for (size_t j = 0; j < k; ++j) rank += keys[j] > key;
    top[rank] = {std::bit_cast<double>(static_cast<uint64_t>(key >> 32)),
                 ~static_cast<uint32_t>(key)};
  }
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
  for (const auto& item : scratch->top) {
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
