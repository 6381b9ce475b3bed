#ifndef QATK_CLUSTER_SHARDER_H_
#define QATK_CLUSTER_SHARDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace qatk::cluster {

/// \brief Maps a partition key (a part id — the paper's candidate-selection
/// key, §4.3) to one of `num_shards` workers: FNV-1a 64 over the key
/// bytes, mod N, which spreads arbitrary part-id distributions evenly.
///
/// The sharder is the single source of truth for ownership: the launcher
/// uses it to scope each worker's training slice, and the coordinator uses
/// the *same* mapping to route queries and mutations. The mapping is a
/// pure function of the key bytes, so separate instances (one per shard
/// process, one in the coordinator) always agree.
class Sharder {
 public:
  explicit Sharder(uint32_t num_shards) : num_shards_(num_shards) {}

  /// Shard index in [0, num_shards) owning `key`.
  uint32_t ShardFor(std::string_view key) const;

  uint32_t num_shards() const { return num_shards_; }

  /// The partition function's stable wire name ("hash"). Every shard
  /// reports it in Health, and the coordinator checks it at Connect, so a
  /// cluster whose processes partition differently refuses to start.
  const char* name() const { return "hash"; }

 private:
  uint32_t num_shards_;
};

/// Returns a sharder for `name` over `num_shards` workers; nullptr unless
/// `name` is "hash" and num_shards >= 1.
std::unique_ptr<Sharder> MakeSharder(const std::string& name,
                                     uint32_t num_shards);

}  // namespace qatk::cluster

#endif  // QATK_CLUSTER_SHARDER_H_
