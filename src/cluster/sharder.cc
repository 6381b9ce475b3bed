#include "cluster/sharder.h"

namespace qatk::cluster {

uint32_t HashSharder::ShardFor(std::string_view key) const {
  // FNV-1a 64: stable across platforms, good avalanche for short ids.
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % num_shards_);
}

uint32_t RangeSharder::ShardFor(std::string_view key) const {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    const uint64_t byte =
        i < key.size() ? static_cast<unsigned char>(key[i]) : 0;
    prefix = (prefix << 8) | byte;
  }
  // shard = floor(prefix * N / 2^64) without overflow: N equal-width
  // ranges over the full u64 prefix space.
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(prefix) * num_shards_) >> 64);
}

std::unique_ptr<Sharder> MakeSharder(const std::string& name,
                                     uint32_t num_shards) {
  if (num_shards == 0) return nullptr;
  if (name == "hash") return std::make_unique<HashSharder>(num_shards);
  if (name == "range") return std::make_unique<RangeSharder>(num_shards);
  return nullptr;
}

}  // namespace qatk::cluster
