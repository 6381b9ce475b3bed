#ifndef QATK_KB_FROZEN_INDEX_H_
#define QATK_KB_FROZEN_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"

namespace qatk::kb {

/// \brief Frozen, immutable CSR snapshot of a KnowledgeBase, built once
/// after training and served read-only.
///
/// The live KnowledgeBase keeps its postings in nested hash maps
/// (part -> feature -> node list), which is ideal for incremental inserts
/// but chases pointers on every probe and forces the classifier to re-merge
/// each candidate's sorted feature vector per query. The frozen index lays
/// the same data out flat:
///
///   * part ids interned to dense indices; per part one contiguous run of
///     sorted feature ids (`feature_ids_`) with a parallel `offsets_` array
///     into one flat `postings_` array of node indices (classic CSR);
///   * a second CSR over *all* parts (`all_*`) backing the unknown-part
///     fallback, where every node is a candidate (§4.3);
///   * per-node metadata: feature-set size, interned error code, and the
///     feature ids themselves in one contiguous arena (`feature_arena_`),
///     so nothing on the scoring path allocates or hashes strings.
///
/// Scoring uses term-at-a-time accumulation: for each probe feature, walk
/// its posting list and bump a per-node shared-feature counter. All four
/// similarity measures depend only on (|A∩B|, |A|, |B|), so the counter
/// plus the stored node sizes replace the per-candidate sorted merge —
/// O(postings touched) instead of O(candidates × merge).
///
/// Thread-safety: the index is immutable after Build, so any number of
/// threads may query it concurrently, each with its own Scratch.
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

  /// An empty index (zero nodes); every probe ranks nothing.
  FrozenIndex() = default;

  /// Snapshots `knowledge` into CSR form. Node indices, part interning and
  /// code interning all follow knowledge-base insertion order, which is
  /// what keeps tie-breaking identical to the brute-force path.
  static FrozenIndex Build(const KnowledgeBase& knowledge);

  /// Partition-restricted freeze: snapshots only the nodes whose part id
  /// satisfies `include_part`, preserving their relative order (so
  /// tie-breaking inside the slice matches the unrestricted index). When
  /// `kept_nodes` is non-null it receives, per local node index, the node's
  /// index in the unrestricted Build — the global total order a
  /// scatter-gather merge needs for exact cross-shard tie-breaking.
  static FrozenIndex Build(
      const KnowledgeBase& knowledge,
      const std::function<bool(const std::string&)>& include_part,
      std::vector<uint32_t>* kept_nodes = nullptr);

  size_t num_nodes() const { return node_code_.size(); }
  size_t num_parts() const { return part_ranges_.size(); }
  /// Total posting entries in the per-part CSR (the all-parts CSR mirrors
  /// the same count).
  size_t num_postings() const { return postings_.size(); }
  /// Bytes held by the flat arrays (size() * sizeof(T) summed over the
  /// CSRs, the node metadata and the feature arena); excludes the part
  /// and code string tables.
  size_t memory_bytes() const;

  bool HasPart(const std::string& part_id) const {
    return part_index_.count(part_id) > 0;
  }

  /// Size of the node's feature set (|B| in the similarity formulas).
  uint32_t node_feature_count(uint32_t node) const {
    return static_cast<uint32_t>(node_offsets_[node + 1] -
                                 node_offsets_[node]);
  }

  /// Interned error-code id of the node (equal ids <=> equal code strings).
  uint32_t node_code_id(uint32_t node) const { return node_code_[node]; }

  /// Error-code string of the node.
  const std::string& node_error_code(uint32_t node) const {
    return codes_[node_code_[node]];
  }

  /// The node's sorted feature ids as a [begin, end) range into the arena.
  std::pair<const int64_t*, const int64_t*> node_features(
      uint32_t node) const {
    const int64_t* base = feature_arena_.data();
    return {base + node_offsets_[node], base + node_offsets_[node + 1]};
  }

  /// Term-at-a-time accumulation over the part-restricted postings.
  /// Returns false when the part id is unknown (caller falls back to
  /// AccumulateSharedAllNodes; §4.3 "we select all nodes"). On return,
  /// `scratch->touched` holds exactly the nodes of this part sharing >= 1
  /// probe feature — the brute-force candidate set — with their shared
  /// counts in `scratch->shared`. `features` must be sorted + deduplicated.
  bool AccumulateShared(const std::string& part_id,
                        const std::vector<int64_t>& features,
                        Scratch* scratch) const;

  /// Accumulation over the all-parts postings, for unknown-part probes
  /// where every node (even with zero shared features) is a candidate.
  /// Untouched nodes simply keep a stale epoch tag (read as shared = 0).
  void AccumulateSharedAllNodes(const std::vector<int64_t>& features,
                                Scratch* scratch) const;

  /// Shared count of `node` after an Accumulate* call on `scratch`.
  static uint32_t SharedCount(const Scratch& scratch, uint32_t node) {
    return scratch.epoch[node] == scratch.current ? scratch.shared[node] : 0;
  }

 private:
  /// One part's run of features inside feature_ids_ / offsets_.
  struct PartRange {
    size_t begin = 0;
    size_t end = 0;
  };

  /// Resets `scratch` for a new query against this index.
  void BeginQuery(Scratch* scratch) const;

  /// Walks the CSR rows [feat_begin, feat_end) of `feature_ids` matching
  /// `features` and bumps accumulators for every posted node.
  void AccumulateRange(const std::vector<int64_t>& features,
                       const std::vector<int64_t>& feature_ids,
                       const std::vector<size_t>& offsets,
                       const std::vector<uint32_t>& postings,
                       size_t feat_begin, size_t feat_end,
                       Scratch* scratch) const;

  std::unordered_map<std::string, uint32_t> part_index_;
  std::vector<PartRange> part_ranges_;
  /// Per-part sorted feature-id runs; offsets_[i]..offsets_[i+1] is the
  /// postings range of feature_ids_[i].
  std::vector<int64_t> feature_ids_;
  std::vector<size_t> offsets_;
  std::vector<uint32_t> postings_;

  /// All-parts CSR for the unknown-part fallback.
  std::vector<int64_t> all_feature_ids_;
  std::vector<size_t> all_offsets_;
  std::vector<uint32_t> all_postings_;

  /// Interned error codes, first-seen order over nodes.
  std::vector<std::string> codes_;
  std::vector<uint32_t> node_code_;
  /// Contiguous node-feature arena; node_offsets_ has num_nodes + 1 rows.
  std::vector<size_t> node_offsets_;
  std::vector<int64_t> feature_arena_;
};

}  // namespace qatk::kb

#endif  // QATK_KB_FROZEN_INDEX_H_
