#include "kb/frozen_index.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace qatk::kb {

namespace {

/// Scoring-path counters (process-wide; resolved once, thread-safe).
obs::Counter* PostingsScannedCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("qatk_kb_postings_scanned_total");
  return counter;
}

obs::Counter* ScratchReuseCounter() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "qatk_kb_scratch_epoch_reuse_total");
  return counter;
}

obs::Counter* ScratchRebuildCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("qatk_kb_scratch_rebuilds_total");
  return counter;
}

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

/// (feature, node) pair used while grouping postings into CSR runs.
struct Posting {
  int64_t feature;
  uint32_t node;
  bool operator<(const Posting& other) const {
    if (feature != other.feature) return feature < other.feature;
    return node < other.node;
  }
};

/// Appends `pairs` (sorted by feature, then node) as CSR rows.
void AppendRuns(const std::vector<Posting>& pairs,
                std::vector<int64_t>* feature_ids,
                std::vector<size_t>* offsets,
                std::vector<uint32_t>* postings) {
  size_t i = 0;
  while (i < pairs.size()) {
    const int64_t feature = pairs[i].feature;
    feature_ids->push_back(feature);
    offsets->push_back(postings->size());
    while (i < pairs.size() && pairs[i].feature == feature) {
      postings->push_back(pairs[i].node);
      ++i;
    }
  }
}

}  // namespace

FrozenIndex FrozenIndex::Build(const KnowledgeBase& knowledge) {
  FrozenIndex index;
  const std::vector<KnowledgeNode>& nodes = knowledge.nodes();
  QATK_CHECK(nodes.size() < std::numeric_limits<uint32_t>::max())
      << "FrozenIndex node indices are 32-bit";
  const uint32_t num_nodes = static_cast<uint32_t>(nodes.size());

  // Node arena + code interning, in knowledge-base insertion order.
  size_t total_features = 0;
  for (const KnowledgeNode& node : nodes) total_features += node.features.size();
  index.node_code_.reserve(num_nodes);
  index.node_offsets_.reserve(num_nodes + 1);
  index.feature_arena_.reserve(total_features);
  index.node_offsets_.push_back(0);
  std::unordered_map<std::string, uint32_t> code_index;
  std::unordered_map<std::string, std::vector<Posting>> per_part;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    const KnowledgeNode& node = nodes[i];
    auto [it, inserted] =
        code_index.emplace(node.error_code, index.codes_.size());
    if (inserted) index.codes_.push_back(node.error_code);
    index.node_code_.push_back(it->second);
    index.feature_arena_.insert(index.feature_arena_.end(),
                                node.features.begin(), node.features.end());
    index.node_offsets_.push_back(index.feature_arena_.size());
    // Every node registers its part, even with an empty feature set: a part
    // whose nodes share no probe feature is still *known* (empty candidate
    // set), never the all-nodes fallback.
    per_part[node.part_id];
    for (int64_t f : node.features) per_part[node.part_id].push_back({f, i});
  }

  // Per-part CSR. Parts are interned in node insertion order for
  // determinism (iteration over per_part would be hash order).
  index.feature_ids_.reserve(total_features);  // Upper bound.
  index.postings_.reserve(total_features);
  for (const KnowledgeNode& node : nodes) {
    auto [it, inserted] =
        index.part_index_.emplace(node.part_id, index.part_ranges_.size());
    if (!inserted) continue;
    std::vector<Posting>& pairs = per_part[node.part_id];
    std::sort(pairs.begin(), pairs.end());
    PartRange range;
    range.begin = index.feature_ids_.size();
    AppendRuns(pairs, &index.feature_ids_, &index.offsets_, &index.postings_);
    range.end = index.feature_ids_.size();
    index.part_ranges_.push_back(range);
  }
  index.offsets_.push_back(index.postings_.size());

  // All-parts CSR for the unknown-part fallback.
  std::vector<Posting> all_pairs;
  all_pairs.reserve(total_features);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    for (int64_t f : nodes[i].features) all_pairs.push_back({f, i});
  }
  std::sort(all_pairs.begin(), all_pairs.end());
  AppendRuns(all_pairs, &index.all_feature_ids_, &index.all_offsets_,
             &index.all_postings_);
  index.all_offsets_.push_back(index.all_postings_.size());
  return index;
}

FrozenIndex FrozenIndex::Build(
    const KnowledgeBase& knowledge,
    const std::function<bool(const std::string&)>& include_part,
    std::vector<uint32_t>* kept_nodes) {
  // Build the slice as a real KnowledgeBase so the plain Build above stays
  // the single source of CSR layout. RestoreNode keeps instance counts and
  // append order, so the slice's node order is the unrestricted order
  // filtered down — tie-breaking inside the slice is unchanged.
  KnowledgeBase slice;
  if (kept_nodes != nullptr) kept_nodes->clear();
  const std::vector<KnowledgeNode>& nodes = knowledge.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!include_part(nodes[i].part_id)) continue;
    slice.RestoreNode(nodes[i]);
    if (kept_nodes != nullptr) {
      kept_nodes->push_back(static_cast<uint32_t>(i));
    }
  }
  return Build(slice);
}

size_t FrozenIndex::memory_bytes() const {
  return VectorBytes(part_ranges_) + VectorBytes(feature_ids_) +
         VectorBytes(offsets_) + VectorBytes(postings_) +
         VectorBytes(all_feature_ids_) + VectorBytes(all_offsets_) +
         VectorBytes(all_postings_) + VectorBytes(node_code_) +
         VectorBytes(node_offsets_) + VectorBytes(feature_arena_);
}

void FrozenIndex::BeginQuery(Scratch* scratch) const {
  const size_t n = num_nodes();
  if (scratch->epoch.size() != n) {
    scratch->epoch.assign(n, 0);
    scratch->shared.assign(n, 0);
    scratch->current = 0;
    ScratchRebuildCounter()->Add();
  } else {
    ScratchReuseCounter()->Add();
  }
  ++scratch->current;
  scratch->touched.clear();
}

void FrozenIndex::AccumulateRange(const std::vector<int64_t>& features,
                                  const std::vector<int64_t>& feature_ids,
                                  const std::vector<size_t>& offsets,
                                  const std::vector<uint32_t>& postings,
                                  size_t feat_begin, size_t feat_end,
                                  Scratch* scratch) const {
  const int64_t* row_begin = feature_ids.data() + feat_begin;
  const int64_t* row_end = feature_ids.data() + feat_end;
  const int64_t* row = row_begin;
  const uint64_t current = scratch->current;
  uint64_t scanned = 0;
  for (int64_t f : features) {
    // Both the probe and the CSR rows are sorted ascending, so the search
    // front only ever advances.
    row = std::lower_bound(row, row_end, f);
    if (row == row_end) break;
    if (*row != f) continue;
    const size_t r = static_cast<size_t>(row - feature_ids.data());
    scanned += offsets[r + 1] - offsets[r];
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const uint32_t node = postings[k];
      if (scratch->epoch[node] != current) {
        scratch->epoch[node] = current;
        scratch->shared[node] = 1;
        scratch->touched.push_back(node);
      } else {
        ++scratch->shared[node];
      }
    }
  }
  // One sharded add per query, not per posting, keeps the hot loop clean.
  PostingsScannedCounter()->Add(scanned);
}

bool FrozenIndex::AccumulateShared(const std::string& part_id,
                                   const std::vector<int64_t>& features,
                                   Scratch* scratch) const {
  BeginQuery(scratch);
  auto it = part_index_.find(part_id);
  if (it == part_index_.end()) return false;
  const PartRange& range = part_ranges_[it->second];
  AccumulateRange(features, feature_ids_, offsets_, postings_, range.begin,
                  range.end, scratch);
  return true;
}

void FrozenIndex::AccumulateSharedAllNodes(
    const std::vector<int64_t>& features, Scratch* scratch) const {
  BeginQuery(scratch);
  AccumulateRange(features, all_feature_ids_, all_offsets_, all_postings_, 0,
                  all_feature_ids_.size(), scratch);
}

}  // namespace qatk::kb
