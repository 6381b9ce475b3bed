#include "kb/knowledge_base.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace qatk::kb {

namespace {

/// Merge key of a configuration inside one part's slice. The error code is
/// length-prefixed: a bare separator would let codes containing '\x1f'
/// collide with feature suffixes. The feature suffix needs no prefixes —
/// decimal digits can't contain '\x1f'. (The part id is implicit: each
/// part has its own merge index.)
std::string ConfigKey(const std::string& error_code,
                      const std::vector<int64_t>& features) {
  std::string key = std::to_string(error_code.size());
  key.push_back(':');
  key += error_code;
  for (int64_t f : features) {
    key.push_back('\x1f');
    key += std::to_string(f);
  }
  return key;
}

/// Whether two sorted feature sets have a common id; the merge stops at
/// the first one.
bool SharesFeature(const std::vector<int64_t>& a,
                   const std::vector<int64_t>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

const KnowledgePart* KnowledgeBase::FindPart(const std::string& part_id) const {
  auto it = part_index_->find(part_id);
  return it == part_index_->end() ? nullptr : parts_[it->second].get();
}

uint32_t KnowledgeBase::PartSlot(const std::string& part_id) {
  auto it = part_index_->find(part_id);
  if (it != part_index_->end()) return it->second;
  const uint32_t slot = static_cast<uint32_t>(parts_.size());
  part_index_.Mutable().emplace(part_id, slot);
  KnowledgePart part;
  part.part_id = part_id;
  parts_.emplace_back(std::move(part));
  return slot;
}

void KnowledgeBase::Append(uint32_t slot, KnowledgePart* part,
                           KnowledgeNode node) {
  QATK_CHECK(node_refs_.size() < std::numeric_limits<uint32_t>::max())
      << "knowledge node ids are 32-bit";
  const uint32_t id = static_cast<uint32_t>(node_refs_.size());
  node_refs_.push_back({slot, static_cast<uint32_t>(part->nodes.size())});
  // Ids grow monotonically, so a part's nodes stay in ascending id;
  // SelectCandidates and the frozen segments' posting order rely on this.
  part->node_ids.push_back(id);
  part->nodes.push_back(std::move(node));
}

bool KnowledgeBase::AddInstance(const std::string& part_id,
                                const std::string& error_code,
                                std::vector<int64_t> features) {
  QATK_DCHECK(std::is_sorted(features.begin(), features.end()));
  ++num_instances_;
  const uint32_t slot = PartSlot(part_id);
  KnowledgePart& part = parts_[slot].Mutable();
  auto [it, inserted] = part.config_index.try_emplace(
      ConfigKey(error_code, features), static_cast<uint32_t>(part.nodes.size()));
  if (!inserted) {
    ++part.nodes[it->second].instance_count;
    return false;
  }
  Append(slot, &part, KnowledgeNode{part_id, error_code, std::move(features)});
  return true;
}

void KnowledgeBase::RestoreNode(KnowledgeNode node) {
  QATK_DCHECK(std::is_sorted(node.features.begin(), node.features.end()));
  num_instances_ += node.instance_count;
  const uint32_t slot = PartSlot(node.part_id);
  KnowledgePart& part = parts_[slot].Mutable();
  part.config_index.try_emplace(ConfigKey(node.error_code, node.features),
                                static_cast<uint32_t>(part.nodes.size()));
  Append(slot, &part, std::move(node));
}

std::vector<const KnowledgeNode*> KnowledgeBase::SelectCandidates(
    const std::string& part_id, const std::vector<int64_t>& features) const {
  const KnowledgePart* part = FindPart(part_id);
  if (part == nullptr) {
    // Unknown part id: "we select all nodes into our neighbor candidate
    // set" (§4.3).
    return AllNodes();
  }
  // The part's nodes are in ascending id, so the output is too.
  std::vector<const KnowledgeNode*> out;
  for (const KnowledgeNode& node : part->nodes) {
    if (SharesFeature(node.features, features)) out.push_back(&node);
  }
  return out;
}

std::vector<const KnowledgeNode*> KnowledgeBase::NodesForPart(
    const std::string& part_id) const {
  std::vector<const KnowledgeNode*> out;
  const KnowledgePart* part = FindPart(part_id);
  if (part == nullptr) return out;
  out.reserve(part->nodes.size());
  for (const KnowledgeNode& node : part->nodes) out.push_back(&node);
  return out;
}

std::vector<const KnowledgeNode*> KnowledgeBase::AllNodes() const {
  std::vector<const KnowledgeNode*> out;
  out.reserve(node_refs_.size());
  for (size_t i = 0; i < node_refs_.size(); ++i) out.push_back(&node(i));
  return out;
}

}  // namespace qatk::kb
