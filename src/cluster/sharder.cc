#include "cluster/sharder.h"

namespace qatk::cluster {

uint32_t Sharder::ShardFor(std::string_view key) const {
  // FNV-1a 64: stable across platforms, good avalanche for short ids.
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % num_shards_);
}

std::unique_ptr<Sharder> MakeSharder(const std::string& name,
                                     uint32_t num_shards) {
  if (num_shards == 0 || name != "hash") return nullptr;
  return std::make_unique<Sharder>(num_shards);
}

}  // namespace qatk::cluster
