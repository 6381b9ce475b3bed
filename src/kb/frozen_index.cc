#include "kb/frozen_index.h"

#include <algorithm>
#include <atomic>
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

obs::Counter* SegmentBuildCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("qatk_kb_segment_builds_total");
  return counter;
}

/// Test-observable twin of SegmentBuildCounter (obs compiles out under
/// QATK_NO_METRICS).
std::atomic<uint64_t> g_segment_builds{0};

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace

FrozenIndex::FrozenIndex() : tables_(std::make_shared<const Tables>()) {}

std::shared_ptr<const FrozenIndex::Segment> FrozenIndex::BuildSegment(
    const KnowledgePart& part) {
  g_segment_builds.fetch_add(1, std::memory_order_relaxed);
  SegmentBuildCounter()->Add();
  auto segment = std::make_shared<Segment>();
  // The part's posting lists already hold ascending global ids; only the
  // feature order has to be imposed.
  segment->feature_ids.reserve(part.postings.size());
  size_t total = 0;
  for (const auto& [feature, nodes] : part.postings) {
    segment->feature_ids.push_back(feature);
    total += nodes.size();
  }
  std::sort(segment->feature_ids.begin(), segment->feature_ids.end());
  segment->offsets.reserve(segment->feature_ids.size() + 1);
  segment->postings.reserve(total);
  for (int64_t feature : segment->feature_ids) {
    segment->offsets.push_back(static_cast<uint32_t>(segment->postings.size()));
    const std::vector<uint32_t>& nodes = part.postings.at(feature);
    segment->postings.insert(segment->postings.end(), nodes.begin(),
                             nodes.end());
  }
  segment->offsets.push_back(static_cast<uint32_t>(segment->postings.size()));
  return segment;
}

uint32_t FrozenIndex::InternCode(const std::string& code, Tables* tables) {
  auto [it, inserted] = tables->code_index.emplace(
      code, static_cast<uint32_t>(tables->codes.size()));
  if (inserted) tables->codes.push_back(code);
  return it->second;
}

FrozenIndex FrozenIndex::Build(const KnowledgeBase& knowledge) {
  FrozenIndex index;
  auto tables = std::make_shared<Tables>();
  const size_t num_nodes = knowledge.num_nodes();
  index.node_code_.reserve(num_nodes);
  index.node_size_.reserve(num_nodes);
  // Codes are interned in first-seen order over global node ids.
  for (size_t i = 0; i < num_nodes; ++i) {
    const KnowledgeNode& node = knowledge.node(i);
    index.AppendNode(node, InternCode(node.error_code, tables.get()));
  }
  // The knowledge base interns parts in node insertion order too. Every
  // part gets a segment, even one whose nodes have no features: such a
  // part is still *known* (empty candidate set), never the all-nodes
  // fallback.
  index.segments_.reserve(knowledge.num_parts());
  for (size_t p = 0; p < knowledge.num_parts(); ++p) {
    const KnowledgePart& part = knowledge.part(p);
    tables->part_index.emplace(part.part_id, static_cast<uint32_t>(p));
    index.segments_.push_back(BuildSegment(part));
    index.num_postings_ += index.segments_.back()->postings.size();
  }
  index.tables_ = std::move(tables);
  return index;
}

void FrozenIndex::RebuildPart(const KnowledgeBase& knowledge,
                              const std::string& part_id) {
  const KnowledgePart* part = knowledge.FindPart(part_id);
  QATK_CHECK(part != nullptr) << "RebuildPart: unknown part '" << part_id
                              << "'";
  QATK_CHECK(knowledge.num_nodes() >= num_nodes())
      << "RebuildPart: the knowledge base lost nodes";
  // The shared tables are cloned only if this rebuild interns a new code
  // or a new part. Ids already in tables_ are equal in the clone.
  std::shared_ptr<Tables> cloned;
  auto writable = [&]() -> Tables* {
    if (cloned == nullptr) cloned = std::make_shared<Tables>(*tables_);
    return cloned.get();
  };
  for (size_t i = num_nodes(); i < knowledge.num_nodes(); ++i) {
    const KnowledgeNode& node = knowledge.node(i);
    QATK_DCHECK(node.part_id == part_id);
    auto code = tables_->code_index.find(node.error_code);
    AppendNode(node, code != tables_->code_index.end()
                         ? code->second
                         : InternCode(node.error_code, writable()));
  }
  std::shared_ptr<const Segment> segment = BuildSegment(*part);
  num_postings_ += segment->postings.size();
  auto slot = tables_->part_index.find(part_id);
  if (slot == tables_->part_index.end()) {
    writable()->part_index.emplace(part_id,
                                   static_cast<uint32_t>(segments_.size()));
    segments_.push_back(std::move(segment));
  } else {
    num_postings_ -= segments_[slot->second]->postings.size();
    segments_[slot->second] = std::move(segment);
  }
  if (cloned != nullptr) tables_ = std::move(cloned);
}

size_t FrozenIndex::memory_bytes() const {
  size_t bytes = VectorBytes(node_code_) + VectorBytes(node_size_);
  for (const std::shared_ptr<const Segment>& segment : segments_) {
    bytes += VectorBytes(segment->feature_ids) +
             VectorBytes(segment->offsets) + VectorBytes(segment->postings);
  }
  return bytes;
}

const FrozenIndex::Segment* FrozenIndex::FindSegment(
    const std::string& part_id) const {
  auto it = tables_->part_index.find(part_id);
  return it == tables_->part_index.end() ? nullptr
                                         : segments_[it->second].get();
}

uint64_t FrozenIndex::SegmentBuildsForTest() {
  return g_segment_builds.load(std::memory_order_relaxed);
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

uint64_t FrozenIndex::AccumulateSegment(const Segment& segment,
                                        const std::vector<int64_t>& features,
                                        Scratch* scratch) {
  const int64_t* rows = segment.feature_ids.data();
  const int64_t* row_end = rows + segment.feature_ids.size();
  const int64_t* row = rows;
  const uint64_t current = scratch->current;
  uint64_t scanned = 0;
  for (int64_t f : features) {
    // Both the probe and the CSR rows are sorted ascending, so the search
    // front only ever advances. Segments hold tens of rows, and the
    // unknown-part fallback searches every one of them: a forward walk in
    // steps of eight beats a binary search per probe feature there.
    while (row_end - row >= 8 && row[7] < f) row += 8;
    while (row != row_end && *row < f) ++row;
    if (row == row_end) break;
    if (*row != f) continue;
    const size_t r = static_cast<size_t>(row - rows);
    const uint32_t begin = segment.offsets[r];
    const uint32_t end = segment.offsets[r + 1];
    scanned += end - begin;
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t node = segment.postings[k];
      if (scratch->epoch[node] != current) {
        scratch->epoch[node] = current;
        scratch->shared[node] = 1;
        scratch->touched.push_back(node);
      } else {
        ++scratch->shared[node];
      }
    }
  }
  return scanned;
}

bool FrozenIndex::AccumulateShared(const std::string& part_id,
                                   const std::vector<int64_t>& features,
                                   Scratch* scratch) const {
  BeginQuery(scratch);
  const Segment* segment = FindSegment(part_id);
  if (segment == nullptr) return false;
  // One sharded add per query, not per posting, keeps the hot loop clean.
  PostingsScannedCounter()->Add(AccumulateSegment(*segment, features, scratch));
  return true;
}

void FrozenIndex::AccumulateSharedAllNodes(
    const std::vector<int64_t>& features, Scratch* scratch) const {
  BeginQuery(scratch);
  uint64_t scanned = 0;
  for (const std::shared_ptr<const Segment>& segment : segments_) {
    scanned += AccumulateSegment(*segment, features, scratch);
  }
  PostingsScannedCounter()->Add(scanned);
}

}  // namespace qatk::kb
