#ifndef QATK_CLUSTER_SHARDER_H_
#define QATK_CLUSTER_SHARDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace qatk::cluster {

/// \brief Maps a partition key (a part id — the paper's candidate-selection
/// key, §4.3) to one of `num_shards` workers.
///
/// The sharder is the single source of truth for ownership: the launcher
/// uses it to scope each worker's training slice, and the coordinator uses
/// the *same* mapping to route queries and mutations. Every mapping is a
/// pure function of the key bytes, so separate instances (one per shard
/// process, one in the coordinator) always agree.
class Sharder {
 public:
  virtual ~Sharder() = default;

  /// Shard index in [0, num_shards) owning `key`.
  virtual uint32_t ShardFor(std::string_view key) const = 0;

  virtual uint32_t num_shards() const = 0;

  /// Stable name ("hash", "range") — recorded in Health so
  /// the coordinator can verify every shard was trained with the same
  /// partitioning it is about to route with.
  virtual const char* name() const = 0;
};

/// FNV-1a 64 over the key bytes, mod N. Spreads arbitrary part-id
/// distributions evenly; no locality.
class HashSharder : public Sharder {
 public:
  explicit HashSharder(uint32_t num_shards) : num_shards_(num_shards) {}

  uint32_t ShardFor(std::string_view key) const override;
  uint32_t num_shards() const override { return num_shards_; }
  const char* name() const override { return "hash"; }

 private:
  uint32_t num_shards_;
};

/// Lexicographic range partitioning: the leading 8 key bytes, read
/// big-endian as a u64 prefix, split the key space into N equal-width
/// contiguous ranges. Keys sharing a prefix land on the same shard, which
/// preserves locality for hierarchical part numbering schemes:
/// shard = floor(prefix * N / 2^64).
class RangeSharder : public Sharder {
 public:
  explicit RangeSharder(uint32_t num_shards) : num_shards_(num_shards) {}

  uint32_t ShardFor(std::string_view key) const override;
  uint32_t num_shards() const override { return num_shards_; }
  const char* name() const override { return "range"; }

 private:
  uint32_t num_shards_;
};

/// Factory over the stable names above. Returns nullptr for an unknown
/// name or num_shards == 0.
std::unique_ptr<Sharder> MakeSharder(const std::string& name,
                                     uint32_t num_shards);

}  // namespace qatk::cluster

#endif  // QATK_CLUSTER_SHARDER_H_
