#include "core/baselines.h"

#include <algorithm>
#include <unordered_set>

namespace qatk::core {

void CodeFrequencyBaseline::AddObservation(const std::string& part_id,
                                           const std::string& error_code) {
  ++counts_[part_id].Mutable()[error_code];
}

std::vector<ScoredCode> CodeFrequencyBaseline::Rank(
    const std::string& part_id) const {
  std::vector<ScoredCode> out;
  auto it = counts_.find(part_id);
  if (it == counts_.end()) return out;
  out.reserve(it->second->size());
  for (const auto& [code, count] : *it->second) {
    out.push_back({code, static_cast<double>(count)});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredCode& a, const ScoredCode& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.error_code < b.error_code;
            });
  return out;
}

namespace {

/// FNV-1a: a deterministic stand-in for the "arbitrary" retrieval order of
/// the unsorted candidate set — decorrelated from both code frequency and
/// insertion order, as in the paper, where the set order carries no
/// information about the true code (<1% accuracy@1).
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

std::vector<ScoredCode> CandidateSetBaseline::Rank(
    const kb::KnowledgeBase& knowledge, const std::string& part_id,
    const std::vector<int64_t>& features) const {
  std::vector<ScoredCode> out;
  std::unordered_set<std::string> seen;
  for (const kb::KnowledgeNode* node :
       knowledge.SelectCandidates(part_id, features)) {
    if (seen.insert(node->error_code).second) {
      out.push_back({node->error_code, 0.0});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredCode& a, const ScoredCode& b) {
              return Fnv1a(a.error_code) < Fnv1a(b.error_code);
            });
  return out;
}

}  // namespace qatk::core
