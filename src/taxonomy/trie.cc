#include "taxonomy/trie.h"

#include <algorithm>
#include <functional>

namespace qatk::tax {

size_t TokenTrie::EdgeHash::operator()(const EdgeView& edge) const {
  // The golden-ratio multiple spreads the parent id over all bits before
  // it is mixed into the token hash.
  return std::hash<std::string_view>{}(edge.second) ^
         (static_cast<size_t>(edge.first) * 0x9e3779b97f4a7c15ULL);
}

TokenTrie::TokenTrie() : concepts_(1) {}

int64_t TokenTrie::Child(uint32_t node, std::string_view token) const {
  auto it = children_.find(EdgeView(node, token));
  return it == children_.end() ? int64_t{-1} : int64_t{it->second};
}

void TokenTrie::Insert(const std::vector<std::string>& tokens,
                       int64_t concept_id) {
  if (tokens.empty()) return;
  uint32_t node = 0;
  for (const std::string& token : tokens) {
    auto [it, added] = children_.try_emplace(
        EdgeKey(node, token), static_cast<uint32_t>(concepts_.size()));
    if (added) concepts_.emplace_back();
    node = it->second;
  }
  std::vector<int64_t>& concepts = concepts_[node];
  auto at = std::lower_bound(concepts.begin(), concepts.end(), concept_id);
  if (at == concepts.end() || *at != concept_id) {
    concepts.insert(at, concept_id);
    ++entry_count_;
  }
}

std::optional<TokenTrie::Match> TokenTrie::LongestMatch(
    std::span<const std::string_view> tokens, size_t pos) const {
  std::optional<Match> best;
  uint32_t node = 0;
  for (size_t length = 1; pos + length <= tokens.size(); ++length) {
    const int64_t child = Child(node, tokens[pos + length - 1]);
    if (child < 0) break;
    node = static_cast<uint32_t>(child);
    if (!concepts_[node].empty()) best = Match{length, concepts_[node]};
  }
  return best;
}

bool TokenTrie::ContainsSequence(
    const std::vector<std::string>& tokens) const {
  uint32_t node = 0;
  for (const std::string& token : tokens) {
    const int64_t child = Child(node, token);
    if (child < 0) return false;
    node = static_cast<uint32_t>(child);
  }
  return !concepts_[node].empty();
}

}  // namespace qatk::tax
