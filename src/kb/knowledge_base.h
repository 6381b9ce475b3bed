#ifndef QATK_KB_KNOWLEDGE_BASE_H_
#define QATK_KB_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cow.h"
#include "common/result.h"

namespace qatk::kb {

/// \brief One knowledge node (paper Fig. 9): a unique combination of part
/// id, error code, and occurring features (concept ids or interned words).
///
/// Nodes are *configuration instances* abstracted from data instances
/// (§4.3): identical combinations merge, shrinking the knowledge base and
/// speeding up the pairwise comparisons — the paper's answer to kNN's
/// instance-storage weakness, following Guo et al.'s kNN-Model idea.
struct KnowledgeNode {
  std::string part_id;
  std::string error_code;
  /// Sorted, deduplicated feature ids.
  std::vector<int64_t> features;
  /// Number of raw data instances merged into this node.
  size_t instance_count = 1;
};

/// \brief One part's slice of the knowledge base: its nodes, its
/// (feature -> node) posting lists and its merge index. Node ids are
/// *global* (knowledge-base insertion order across all parts).
struct KnowledgePart {
  std::string part_id;
  /// The part's nodes in append order (so in ascending global id).
  std::vector<KnowledgeNode> nodes;
  /// feature -> global node ids, each list ascending (append-only).
  std::unordered_map<int64_t, std::vector<uint32_t>> postings;
  /// Configuration key (error code + features) -> index into `nodes`.
  std::unordered_map<std::string, uint32_t> config_index;
};

/// \brief In-memory knowledge base with the candidate-selection indexes of
/// Fig. 5: by part id, and by (part id, feature) posting lists.
///
/// The data lives in per-part copy-on-write slices (KnowledgePart). A copy
/// of the knowledge base shares every slice; adding an instance clones
/// only the slice of its part, and only when another copy still shares
/// it. A service confirm therefore copies one part, not the whole base.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  /// Adds one training instance; merges into an existing node when the
  /// (part, code, features) configuration is already present. `features`
  /// must be sorted and deduplicated (FeatureExtractor output). Returns
  /// true when a new node was created, false on a merge.
  bool AddInstance(const std::string& part_id, const std::string& error_code,
                   std::vector<int64_t> features);

  /// Persistence path: re-inserts a node exactly as it was serialized,
  /// keeping its instance_count. Nodes must be restored in their original
  /// order — node indices (and therefore posting-list order and tie
  /// breaking) are append-order, so replaying node(0..n) front to back
  /// rebuilds a bit-identical knowledge base.
  void RestoreNode(KnowledgeNode node);

  size_t num_nodes() const { return node_refs_.size(); }
  size_t num_instances() const { return num_instances_; }

  /// Node by global id (insertion order). The reference is stable until
  /// the next AddInstance / RestoreNode on this knowledge base.
  const KnowledgeNode& node(size_t index) const {
    const NodeRef& ref = node_refs_[index];
    return parts_[ref.part]->nodes[ref.local];
  }

  /// Parts in interning order (order of each part's first node).
  size_t num_parts() const { return parts_.size(); }
  const KnowledgePart& part(size_t index) const { return *parts_[index]; }
  /// The part's slice, or nullptr for an unknown part id.
  const KnowledgePart* FindPart(const std::string& part_id) const;

  bool HasPart(const std::string& part_id) const {
    return part_index_->count(part_id) > 0;
  }

  /// Candidate-set generation (paper Fig. 5): from all knowledge nodes (1),
  /// keep those with the same part id (2), then those sharing at least one
  /// feature with the probe (3). When the part id is unknown, every node
  /// becomes a candidate. Returned pointers are stable until the next
  /// AddInstance.
  std::vector<const KnowledgeNode*> SelectCandidates(
      const std::string& part_id,
      const std::vector<int64_t>& features) const;

  /// All nodes with the given part id (step 2 only; used by tests and the
  /// candidate-set ablation).
  std::vector<const KnowledgeNode*> NodesForPart(
      const std::string& part_id) const;

  std::vector<const KnowledgeNode*> AllNodes() const;

 private:
  /// Where a global node id lives: part slot and index inside it.
  struct NodeRef {
    uint32_t part;
    uint32_t local;
  };

  /// Slot of `part_id` in parts_, creating an empty slice if needed.
  uint32_t PartSlot(const std::string& part_id);

  /// Appends `node` to the (writable) slice `part` in slot `slot` under
  /// the next global id, and posts its features.
  void Append(uint32_t slot, KnowledgePart* part, KnowledgeNode node);

  std::vector<CowPtr<KnowledgePart>> parts_;
  CowPtr<std::unordered_map<std::string, uint32_t>> part_index_;
  /// Global node id -> (part slot, local index): a flat POD array, so a
  /// copy costs one memcpy whatever the node count.
  std::vector<NodeRef> node_refs_;
  size_t num_instances_ = 0;
};

}  // namespace qatk::kb

#endif  // QATK_KB_KNOWLEDGE_BASE_H_
