#ifndef QATK_TAXONOMY_TRIE_H_
#define QATK_TAXONOMY_TRIE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qatk::tax {

/// \brief Token-sequence trie used by the optimized concept annotator
/// (paper §4.5.3: "We represent the taxonomy as a trie data structure, a
/// tree structure which allows for fast search and retrieval").
///
/// Keys are sequences of normalized tokens (one trie edge per token), so
/// multiword synonyms ("brake hose") become two-edge paths and the
/// left-bounded greedy longest-match scan is a single descent per start
/// position.
///
/// Immutable once built (TokenTrie::Builder) and laid out for reading in a
/// few flat arrays, about 400 KB for the generated taxonomy:
///  * the token dictionary: every distinct token's bytes back to back in
///    one arena, found through a power-of-two open-addressing table of
///    8-byte slots (32-bit hash fingerprint | token id); a fingerprint hit
///    is confirmed by comparing the bytes, so a word resolves to the id of
///    the token it equals or to kNoToken;
///  * the edges: the root's children in a dense array indexed by token
///    id, every deeper edge in one open-addressing table keyed by
///    (parent node << 32) | token id;
///  * the nodes: dense ids (0 = root), each with an ascending range of
///    concept ids in one CSR array (non-empty = end of a synonym) and a
///    has-children flag that ends a descent without a probe.
/// Matching runs on token ids: a caller resolves each word once
/// (TokenId) and descends with the ids.
class TokenTrie {
 public:
  /// TokenId of a word that is no token of the trie; such a word can
  /// neither start nor extend a match.
  static constexpr uint32_t kNoToken = UINT32_MAX;

  /// Collects (token sequence, concept id) entries and builds the trie.
  class Builder;

  /// An empty trie (the root alone).
  TokenTrie();

  TokenTrie(const TokenTrie&) = delete;
  TokenTrie& operator=(const TokenTrie&) = delete;
  TokenTrie(TokenTrie&&) = default;
  TokenTrie& operator=(TokenTrie&&) = default;

  /// The id of the token `word` equals, or kNoToken.
  uint32_t TokenId(std::string_view word) const {
    return dictionary_.Find(word);
  }

  /// Longest match of `token_ids[pos..]` against the trie.
  struct Match {
    size_t length = 0;  ///< Number of tokens consumed.
    /// Concepts of the longest match, ascending: a view into the trie.
    std::span<const int64_t> concepts;
  };

  /// Returns the longest match starting exactly at `pos` of a sequence of
  /// TokenId results, or nullopt.
  std::optional<Match> LongestMatch(std::span<const uint32_t> token_ids,
                                    size_t pos) const;

  /// True if the exact sequence is a key.
  bool ContainsSequence(const std::vector<std::string>& tokens) const;

  /// The dictionary's hash of a token: its low bits pick the token's first
  /// slot, its high 32 bits are the fingerprint kept in the slot. Public so
  /// that tests can build fingerprint collisions.
  static uint64_t HashToken(std::string_view token);

  size_t node_count() const { return has_children_.size(); }
  size_t entry_count() const { return concepts_.size(); }

 private:
  /// Node id of the root, and "no such node".
  static constexpr uint32_t kRoot = 0;
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// The token strings, interned to dense ids in first-seen order.
  class Dictionary {
   public:
    Dictionary();

    /// Id of `token`, or kNoToken.
    uint32_t Find(std::string_view token) const;
    /// Id of `token`, assigning the next id on first sight.
    uint32_t Intern(std::string_view token);
    size_t size() const { return offsets_.size() - 1; }
    /// Drops the arena's and the offsets' spare capacity.
    void ShrinkToFit();

   private:
    std::string_view Token(uint32_t id) const {
      return std::string_view(bytes_).substr(
          offsets_[id], offsets_[id + 1] - offsets_[id]);
    }
    /// Stores `id` (with `hash`'s fingerprint) in the first free slot of
    /// its probe sequence.
    void Place(uint64_t hash, uint32_t id);

    /// Token i is bytes_[offsets_[i], offsets_[i + 1]).
    std::string bytes_;
    std::vector<uint32_t> offsets_;
    /// (fingerprint << 32) | token id, or kEmptySlot; at most half full.
    std::vector<uint64_t> slots_;
  };

  /// One deeper edge: (parent << 32) | token id -> child, or key kNoEdge.
  struct EdgeSlot {
    uint64_t key;
    uint32_t child;
  };

  /// Child of `node` along `token`, or kNoNode.
  uint32_t Child(uint32_t node, uint32_t token) const;

  Dictionary dictionary_;
  /// Per token id: the root's child along it, or kNoNode.
  std::vector<uint32_t> root_children_;
  /// Edges below the root; a power of two in size, at most half full.
  std::vector<EdgeSlot> edges_;
  /// Per node id: its concept ids are concepts_[concept_offsets_[n],
  /// concept_offsets_[n + 1]), ascending.
  std::vector<uint32_t> concept_offsets_;
  std::vector<int64_t> concepts_;
  /// Per node id: 1 if an edge leaves it.
  std::vector<uint8_t> has_children_;
};

class TokenTrie::Builder {
 public:
  /// Associates the token sequence with a concept id. Duplicate
  /// (sequence, id) pairs count once; an empty sequence is ignored.
  void Add(const std::vector<std::string>& tokens, int64_t concept_id);

  /// The trie of every entry added so far. Consumes the builder.
  TokenTrie Build() &&;

 private:
  /// Entry i's sequence is token_ids_[begin, begin + length).
  struct Entry {
    uint32_t begin;
    uint32_t length;
    int64_t concept_id;
  };

  Dictionary dictionary_;
  std::vector<uint32_t> token_ids_;
  std::vector<Entry> entries_;
};

}  // namespace qatk::tax

#endif  // QATK_TAXONOMY_TRIE_H_
