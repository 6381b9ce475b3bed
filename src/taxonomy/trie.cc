#include "taxonomy/trie.h"

#include <algorithm>
#include <bit>
#include <compare>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace qatk::tax {

namespace {

constexpr uint64_t kEmptySlot = ~uint64_t{0};
constexpr uint64_t kNoEdge = ~uint64_t{0};
/// Smallest open-addressing table.
constexpr size_t kMinSlots = 16;

constexpr uint64_t kHashSeed = 0xa0761d6478bd642fULL;
constexpr uint64_t kHashMultiplier = 0xe7037ed1a0b428dbULL;

uint64_t Load64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

uint64_t Load32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

/// The 128-bit product of `a` and `b`, its halves xor-ed.
uint64_t MultiplyFold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product >> 64) ^
         static_cast<uint64_t>(product);
}

uint32_t Fingerprint(uint64_t hash) {
  return static_cast<uint32_t>(hash >> 32);
}

uint64_t EdgeKey(uint32_t parent, uint32_t token) {
  return (uint64_t{parent} << 32) | token;
}

/// First probe position of an edge key in a table of `mask + 1` slots.
size_t EdgeHome(uint64_t key, size_t mask) {
  return static_cast<size_t>(MultiplyFold(key, kHashMultiplier)) & mask;
}

/// Smallest power of two (>= kMinSlots) that keeps `count` keys at most
/// half the table.
size_t TableSize(size_t count) {
  return std::max(kMinSlots, std::bit_ceil(2 * count));
}

}  // namespace

uint64_t TokenTrie::HashToken(std::string_view token) {
  // A multiply-fold hash in the manner of wyhash: a token of up to 16
  // bytes is read as two words in at most four loads (overlapping for
  // short tokens, so no loop and no variable-length copy), a longer one
  // folds 16 bytes per step. The length is mixed in, so tokens that read
  // as the same words still differ.
  const char* p = token.data();
  const size_t n = token.size();
  uint64_t seed = kHashSeed;
  uint64_t a = 0;
  uint64_t b = 0;
  if (n >= 4 && n <= 16) {
    const size_t step = (n >> 3) << 2;  // 0 below 8 bytes, else 4.
    a = (Load32(p) << 32) | Load32(p + step);
    b = (Load32(p + n - 4) << 32) | Load32(p + n - 4 - step);
  } else if (n > 0 && n < 4) {
    a = (uint64_t{static_cast<uint8_t>(p[0])} << 16) |
        (uint64_t{static_cast<uint8_t>(p[n >> 1])} << 8) |
        static_cast<uint8_t>(p[n - 1]);
  } else if (n > 16) {
    size_t rest = n;
    for (; rest > 16; rest -= 16, p += 16) {
      seed = MultiplyFold(Load64(p) ^ kHashMultiplier, Load64(p + 8) ^ seed);
    }
    a = Load64(p + rest - 16);
    b = Load64(p + rest - 8);
  }
  return MultiplyFold(kHashMultiplier ^ n,
                      MultiplyFold(a ^ kHashMultiplier, b ^ seed));
}

// ---------------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------------

TokenTrie::Dictionary::Dictionary()
    : offsets_{0}, slots_(kMinSlots, kEmptySlot) {}

uint32_t TokenTrie::Dictionary::Find(std::string_view token) const {
  const uint64_t hash = HashToken(token);
  const uint32_t fingerprint = Fingerprint(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == kEmptySlot) return kNoToken;
    const uint32_t id = static_cast<uint32_t>(slot);
    if (static_cast<uint32_t>(slot >> 32) == fingerprint &&
        Token(id) == token) {
      return id;
    }
  }
}

void TokenTrie::Dictionary::Place(uint64_t hash, uint32_t id) {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
  slots_[i] = (uint64_t{Fingerprint(hash)} << 32) | id;
}

uint32_t TokenTrie::Dictionary::Intern(std::string_view token) {
  const uint32_t found = Find(token);
  if (found != kNoToken) return found;
  const uint32_t id = static_cast<uint32_t>(size());
  QATK_CHECK(id != kNoToken) << "token dictionary is full";
  bytes_.append(token);
  offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  if (2 * size() > slots_.size()) {
    slots_.assign(2 * slots_.size(), kEmptySlot);
    for (uint32_t old = 0; old < id; ++old) Place(HashToken(Token(old)), old);
  }
  Place(HashToken(token), id);
  return id;
}

void TokenTrie::Dictionary::ShrinkToFit() {
  bytes_.shrink_to_fit();
  offsets_.shrink_to_fit();
}

// ---------------------------------------------------------------------------
// TokenTrie
// ---------------------------------------------------------------------------

TokenTrie::TokenTrie()
    : edges_(kMinSlots, EdgeSlot{kNoEdge, kNoNode}),
      concept_offsets_{0, 0},
      has_children_{0} {}

uint32_t TokenTrie::Child(uint32_t node, uint32_t token) const {
  if (token == kNoToken) return kNoNode;
  if (node == kRoot) return root_children_[token];
  const uint64_t key = EdgeKey(node, token);
  const size_t mask = edges_.size() - 1;
  for (size_t i = EdgeHome(key, mask);; i = (i + 1) & mask) {
    const EdgeSlot& slot = edges_[i];
    if (slot.key == key) return slot.child;
    if (slot.key == kNoEdge) return kNoNode;
  }
}

std::optional<TokenTrie::Match> TokenTrie::LongestMatch(
    std::span<const uint32_t> token_ids, size_t pos) const {
  std::optional<Match> best;
  uint32_t node = kRoot;
  for (size_t i = pos; i < token_ids.size() && has_children_[node]; ++i) {
    node = Child(node, token_ids[i]);
    if (node == kNoNode) break;
    const uint32_t begin = concept_offsets_[node];
    const uint32_t end = concept_offsets_[node + 1];
    if (begin != end) {
      best = Match{i - pos + 1, std::span<const int64_t>(
                                    concepts_.data() + begin, end - begin)};
    }
  }
  return best;
}

bool TokenTrie::ContainsSequence(
    const std::vector<std::string>& tokens) const {
  uint32_t node = kRoot;
  for (const std::string& token : tokens) {
    if (!has_children_[node]) return false;
    node = Child(node, TokenId(token));
    if (node == kNoNode) return false;
  }
  return concept_offsets_[node] != concept_offsets_[node + 1];
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

void TokenTrie::Builder::Add(const std::vector<std::string>& tokens,
                             int64_t concept_id) {
  if (tokens.empty()) return;
  entries_.push_back({static_cast<uint32_t>(token_ids_.size()),
                      static_cast<uint32_t>(tokens.size()), concept_id});
  for (const std::string& token : tokens) {
    token_ids_.push_back(dictionary_.Intern(token));
  }
}

TokenTrie TokenTrie::Builder::Build() && {
  auto sequence = [&](const Entry& entry) {
    return std::span<const uint32_t>(token_ids_.data() + entry.begin,
                                     entry.length);
  };
  // In (sequence, concept id) order a sequence follows every prefix of it,
  // so each entry's node is either the last one created or new below the
  // path it shares with the previous entry, and every node's concepts
  // arrive together and ascending.
  std::sort(entries_.begin(), entries_.end(),
            [&](const Entry& a, const Entry& b) {
              const std::span<const uint32_t> sa = sequence(a);
              const std::span<const uint32_t> sb = sequence(b);
              const auto order = std::lexicographical_compare_three_way(
                  sa.begin(), sa.end(), sb.begin(), sb.end());
              return order != 0 ? order < 0 : a.concept_id < b.concept_id;
            });

  TokenTrie trie;
  trie.root_children_.assign(dictionary_.size(), kNoNode);
  std::vector<std::pair<uint64_t, uint32_t>> deep_edges;
  std::vector<uint32_t> path;  // path[d]: the previous entry's depth-d+1 node
  std::span<const uint32_t> previous;
  for (const Entry& entry : entries_) {
    const std::span<const uint32_t> tokens = sequence(entry);
    const size_t shared =
        std::mismatch(tokens.begin(), tokens.end(), previous.begin(),
                      previous.end())
            .first -
        tokens.begin();
    if (shared == tokens.size() && shared == previous.size() &&
        trie.concepts_.back() == entry.concept_id) {
      continue;  // Duplicate (sequence, concept id) pair.
    }
    path.resize(shared);
    for (size_t depth = shared; depth < tokens.size(); ++depth) {
      const uint32_t parent = depth == 0 ? kRoot : path[depth - 1];
      const uint32_t child = static_cast<uint32_t>(trie.has_children_.size());
      if (parent == kRoot) {
        trie.root_children_[tokens[depth]] = child;
      } else {
        deep_edges.emplace_back(EdgeKey(parent, tokens[depth]), child);
      }
      trie.has_children_[parent] = 1;
      trie.has_children_.push_back(0);
      trie.concept_offsets_.push_back(trie.concept_offsets_.back());
      path.push_back(child);
    }
    trie.concepts_.push_back(entry.concept_id);
    ++trie.concept_offsets_.back();
    previous = tokens;
  }

  trie.edges_.assign(TableSize(deep_edges.size()),
                     EdgeSlot{kNoEdge, kNoNode});
  const size_t mask = trie.edges_.size() - 1;
  for (const auto& [key, child] : deep_edges) {
    size_t i = EdgeHome(key, mask);
    while (trie.edges_[i].key != kNoEdge) i = (i + 1) & mask;
    trie.edges_[i] = EdgeSlot{key, child};
  }
  trie.concept_offsets_.shrink_to_fit();
  trie.concepts_.shrink_to_fit();
  trie.has_children_.shrink_to_fit();
  dictionary_.ShrinkToFit();
  trie.dictionary_ = std::move(dictionary_);
  return trie;
}

}  // namespace qatk::tax
