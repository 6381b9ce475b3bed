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
  // Ids grow monotonically, so every posting list stays sorted by node id;
  // SelectCandidates' linear merge and the frozen segments rely on this.
  for (int64_t f : node.features) part->postings[f].push_back(id);
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
  // Posting lists are append-only with monotonically growing node ids
  // (AddInstance), so each list is already sorted; deduplication is a
  // linear k-way merge instead of a per-query sort + unique.
  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(features.size());
  size_t total = 0;
  for (int64_t f : features) {
    auto post_it = part->postings.find(f);
    if (post_it == part->postings.end()) continue;
    lists.push_back(&post_it->second);
    total += post_it->second.size();
  }
  std::vector<uint32_t> hits;
  hits.reserve(total);
  if (lists.size() == 1) {
    // A single list is already sorted and duplicate-free (a node's feature
    // set is deduplicated, so it posts at most once per feature).
    hits = *lists[0];
  } else if (!lists.empty()) {
    // Heap of (next value, list) cursors; pop ascending, skip repeats.
    struct Cursor {
      uint32_t value;
      size_t list;
      size_t pos;
    };
    auto later = [](const Cursor& a, const Cursor& b) {
      return a.value > b.value;  // Min-heap on value.
    };
    std::vector<Cursor> heap;
    heap.reserve(lists.size());
    for (size_t l = 0; l < lists.size(); ++l) {
      heap.push_back({(*lists[l])[0], l, 0});
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor cursor = heap.back();
      heap.pop_back();
      if (hits.empty() || hits.back() != cursor.value) {
        hits.push_back(cursor.value);
      }
      if (++cursor.pos < lists[cursor.list]->size()) {
        cursor.value = (*lists[cursor.list])[cursor.pos];
        heap.push_back(cursor);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  std::vector<const KnowledgeNode*> out;
  out.reserve(hits.size());
  for (uint32_t id : hits) out.push_back(&part->nodes[node_refs_[id].local]);
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
