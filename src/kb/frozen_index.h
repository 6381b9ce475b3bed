#ifndef QATK_KB_FROZEN_INDEX_H_
#define QATK_KB_FROZEN_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"

namespace qatk::kb {

/// \brief Frozen CSR snapshot of a KnowledgeBase, built after training and
/// served read-only, made of immutable per-part segments.
///
/// The live KnowledgeBase keeps no postings: its brute-force
/// SelectCandidates merges each of the part's feature sets with the probe.
/// The frozen index is the one (part, feature) posting layout:
///
///   * one Segment per part (parts interned in node insertion order),
///     built from the part's nodes: the part's sorted feature ids, a
///     parallel `offsets` array and one flat `postings` array of *global*
///     node ids (classic CSR). Segments are immutable and held by
///     `shared_ptr<const>`, so copies of the index share them;
///     RebuildPart replaces one part's segment and leaves every other one
///     pointer-equal to its predecessor's;
///   * per-node metadata over global node ids: feature-set size and
///     interned error code, so nothing on the scoring path allocates or
///     hashes strings.
///
/// The unknown-part fallback, where every node is a candidate (§4.3),
/// accumulates over all segments; there is no second, all-parts layout.
///
/// Scoring uses term-at-a-time accumulation: for each probe feature, walk
/// its posting list and bump a per-node shared-feature counter. All four
/// similarity measures depend only on (|A∩B|, |A|, |B|), so the counter
/// plus the stored node sizes replace the per-candidate sorted merge —
/// O(postings touched) instead of O(candidates × merge).
///
/// Thread-safety: a published index is never mutated, so any number of
/// threads may query it concurrently, each with its own Scratch.
/// RebuildPart mutates only the index it is called on (a private copy).
class FrozenIndex {
 public:
  /// Per-thread accumulator state. Epoch-tagged: a query bumps `current`
  /// and lazily treats any slot whose `epoch` tag is stale as zero, so
  /// repeated queries neither clear nor reallocate the arrays. Reusable
  /// across indexes of different sizes (BeginQuery re-sizes on demand).
  struct Scratch {
    /// Query stamp per node; `shared[n]` is valid iff `epoch[n] == current`.
    std::vector<uint64_t> epoch;
    /// Shared-feature count per node for the current query.
    std::vector<uint32_t> shared;
    /// Nodes touched by the current query, in first-touch order.
    std::vector<uint32_t> touched;
    uint64_t current = 0;
    /// Reusable top-k selection buffers for the indexed classifier
    /// (RankedKnnClassifier): the bounded (score, node) heap and the
    /// seen-code-id list, kept here so a query allocates nothing.
    std::vector<std::pair<double, uint32_t>> heap;
    std::vector<uint32_t> seen_codes;
  };

  /// One part's CSR: `offsets[i]..offsets[i+1]` is the postings range of
  /// `feature_ids[i]`; postings are global node ids, ascending per row.
  struct Segment {
    std::vector<int64_t> feature_ids;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> postings;
  };

  /// An empty index (zero nodes); every probe ranks nothing.
  FrozenIndex();

  /// Snapshots `knowledge` into CSR form, one segment per part. Node ids,
  /// part interning and code interning all follow knowledge-base insertion
  /// order, which is what keeps tie-breaking identical to the brute-force
  /// path.
  static FrozenIndex Build(const KnowledgeBase& knowledge);

  /// Brings this index up to date with `knowledge` after instances were
  /// added to `part_id` only: interns the appended nodes and rebuilds that
  /// one part's segment (adding it for a new part). Every other segment
  /// stays shared. The result equals Build(knowledge).
  void RebuildPart(const KnowledgeBase& knowledge, const std::string& part_id);

  size_t num_nodes() const { return node_code_.size(); }
  size_t num_parts() const { return segments_.size(); }
  /// Total posting entries over all segments.
  size_t num_postings() const { return num_postings_; }
  /// Bytes held by the flat arrays (size() * sizeof(T) summed over the
  /// segments and the node metadata); excludes the part and code string
  /// tables.
  size_t memory_bytes() const;

  bool HasPart(const std::string& part_id) const {
    return tables_->part_index.count(part_id) > 0;
  }

  /// The part's segment, or nullptr for an unknown part. Equal pointers
  /// across two indexes mean the segment is shared, not rebuilt.
  const Segment* FindSegment(const std::string& part_id) const;

  /// Size of the node's feature set (|B| in the similarity formulas).
  uint32_t node_feature_count(uint32_t node) const { return node_size_[node]; }

  /// Interned error-code id of the node (equal ids <=> equal code strings).
  uint32_t node_code_id(uint32_t node) const { return node_code_[node]; }

  /// Error-code string of the node.
  const std::string& node_error_code(uint32_t node) const {
    return tables_->codes[node_code_[node]];
  }

  /// Term-at-a-time accumulation over the part's segment. Returns false
  /// when the part id is unknown (caller falls back to
  /// AccumulateSharedAllNodes; §4.3 "we select all nodes"). On return,
  /// `scratch->touched` holds exactly the nodes of this part sharing >= 1
  /// probe feature — the brute-force candidate set — with their shared
  /// counts in `scratch->shared`. `features` must be sorted + deduplicated.
  bool AccumulateShared(const std::string& part_id,
                        const std::vector<int64_t>& features,
                        Scratch* scratch) const;

  /// Accumulation over every segment, for unknown-part probes where every
  /// node (even with zero shared features) is a candidate. Untouched nodes
  /// simply keep a stale epoch tag (read as shared = 0).
  void AccumulateSharedAllNodes(const std::vector<int64_t>& features,
                                Scratch* scratch) const;

  /// Shared count of `node` after an Accumulate* call on `scratch`.
  static uint32_t SharedCount(const Scratch& scratch, uint32_t node) {
    return scratch.epoch[node] == scratch.current ? scratch.shared[node] : 0;
  }

  /// Segments built since process start (also counted in
  /// `qatk_kb_segment_builds_total`). Test hook for the sharing contract:
  /// Build makes one per part, RebuildPart exactly one.
  static uint64_t SegmentBuildsForTest();

 private:
  /// Part and code interning, shared by pointer between index copies and
  /// cloned only when a rebuild adds a part or a code.
  struct Tables {
    std::unordered_map<std::string, uint32_t> part_index;
    std::vector<std::string> codes;
    std::unordered_map<std::string, uint32_t> code_index;
  };

  /// Builds one part's CSR from its knowledge-base slice.
  static std::shared_ptr<const Segment> BuildSegment(
      const KnowledgePart& part);

  /// Id of `code` in `tables`, interning it if new.
  static uint32_t InternCode(const std::string& code, Tables* tables);

  /// Appends the per-node metadata of the next global node.
  void AppendNode(const KnowledgeNode& node, uint32_t code_id) {
    node_code_.push_back(code_id);
    node_size_.push_back(static_cast<uint32_t>(node.features.size()));
  }

  /// Resets `scratch` for a new query against this index.
  void BeginQuery(Scratch* scratch) const;

  /// Walks the rows of `segment` matching `features` and bumps the
  /// accumulators of every posted node; returns the postings scanned.
  static uint64_t AccumulateSegment(const Segment& segment,
                                    const std::vector<int64_t>& features,
                                    Scratch* scratch);

  std::shared_ptr<const Tables> tables_;
  /// One segment per interned part.
  std::vector<std::shared_ptr<const Segment>> segments_;
  size_t num_postings_ = 0;
  /// Per-node metadata over global node ids.
  std::vector<uint32_t> node_code_;
  std::vector<uint32_t> node_size_;
};

}  // namespace qatk::kb

#endif  // QATK_KB_FROZEN_INDEX_H_
