#ifndef QATK_TAXONOMY_TRIE_H_
#define QATK_TAXONOMY_TRIE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace qatk::tax {

/// \brief Token-sequence trie used by the optimized concept annotator
/// (paper §4.5.3: "We represent the taxonomy as a trie data structure, a
/// tree structure which allows for fast search and retrieval").
///
/// Keys are sequences of normalized tokens (one trie edge per token), so
/// multiword synonyms ("brake hose") become two-edge paths and the
/// left-bounded greedy longest-match scan is a single descent per start
/// position. Nodes are dense ids; every edge lives in one hashed
/// (parent node, token) -> child table that is probed with a
/// `string_view`, so a descent builds no string.
class TokenTrie {
 public:
  TokenTrie();

  TokenTrie(const TokenTrie&) = delete;
  TokenTrie& operator=(const TokenTrie&) = delete;
  TokenTrie(TokenTrie&&) = default;
  TokenTrie& operator=(TokenTrie&&) = default;

  /// Associates the token sequence with a concept id. Duplicate
  /// (sequence, id) pairs are deduplicated.
  void Insert(const std::vector<std::string>& tokens, int64_t concept_id);

  /// Longest match of `tokens[pos..]` against the trie.
  struct Match {
    size_t length = 0;  ///< Number of tokens consumed.
    /// Concepts of the longest match, ascending: a view into the trie,
    /// valid until its next Insert.
    std::span<const int64_t> concepts;
  };

  /// Returns the longest match starting exactly at `pos`, or nullopt.
  std::optional<Match> LongestMatch(std::span<const std::string_view> tokens,
                                    size_t pos) const;

  /// True if the exact sequence is a key.
  bool ContainsSequence(const std::vector<std::string>& tokens) const;

  size_t node_count() const { return concepts_.size(); }
  size_t entry_count() const { return entry_count_; }

 private:
  /// Edge key: (parent node id, token). Lookups pass the token as a view.
  using EdgeKey = std::pair<uint32_t, std::string>;
  using EdgeView = std::pair<uint32_t, std::string_view>;
  struct EdgeHash {
    using is_transparent = void;
    size_t operator()(const EdgeView& edge) const;
    size_t operator()(const EdgeKey& edge) const {
      return (*this)(EdgeView(edge.first, edge.second));
    }
  };
  struct EdgeEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return a.first == b.first &&
             std::string_view(a.second) == std::string_view(b.second);
    }
  };

  /// Child of `node` along `token`, or -1.
  int64_t Child(uint32_t node, std::string_view token) const;

  std::unordered_map<EdgeKey, uint32_t, EdgeHash, EdgeEq> children_;
  /// Per node id (0 = root): its concept ids, ascending; non-empty = end
  /// of a synonym.
  std::vector<std::vector<int64_t>> concepts_;
  size_t entry_count_ = 0;
};

}  // namespace qatk::tax

#endif  // QATK_TAXONOMY_TRIE_H_
