#ifndef QATK_CLUSTER_COORDINATOR_H_
#define QATK_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/sharder.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace qatk::cluster {

/// One shard worker's wire address.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// \brief Scatter-gather front end: a server::RequestHandler that routes
/// every request to the owning shard(s) over the wire protocol and merges
/// partial answers bit-identically to a single-node service (DESIGN.md
/// §14).
///
/// Read routing is two-round: queries probe the part's owner first
/// (the sharder makes ownership a pure function of the part id);
/// only when the owner does not know the part — a part absent from
/// training — does the coordinator fall back to scattering the all-nodes
/// sweep to every shard. Mutations route to the part's owner
/// (ConfirmAssignment carries a coordinator-assigned global ordinal so
/// merge order stays consistent across shards); DefineErrorCode first
/// scatters a description conflict check, because manual descriptions
/// live only on the defining part's owner. Shard RPCs travel through
/// Client::CallWithRetry, so a shard restarting between requests costs a
/// reconnect, not an error; any shard still unreachable after retries
/// fails the whole request (fail-fast — no silently partial merges).
///
/// Thread-safety: Handle is called concurrently from every front-end
/// event loop. Each call borrows per-shard client channels from a
/// mutex-guarded free-list pool (a channel is used by one request at a
/// time; concurrent requests to the same shard open additional
/// connections on demand).
class Coordinator : public server::RequestHandler {
 public:
  struct Options {
    std::vector<ShardEndpoint> shards;
    /// Sharder name ("hash" or "range"); must match what every shard was
    /// trained with (verified by Connect).
    std::string sharder = "hash";
    /// Merge widths; must match the shards' service options.
    size_t max_nodes = 25;
    size_t top_n = 10;
    /// Per-RPC socket timeouts (see Client::Connect).
    int timeout_ms = 5000;
    int connect_timeout_ms = 5000;
    /// Retry policy for shard RPCs.
    RetryPolicy retry_policy{RetryPolicy::Options{
        /*max_attempts=*/4, /*base_backoff=*/std::chrono::microseconds(500),
        /*jitter=*/0.25, /*seed=*/0x9e3779b97f4a7c15ull}};
  };

  explicit Coordinator(Options options);
  ~Coordinator() override;

  /// Health-checks every shard and verifies cluster consistency: each
  /// shard must report the expected shard index, shard count, and sharder
  /// name, and be trained. Seeds the confirm-ordinal counter from the
  /// maximum shard ordinal_high. Must succeed before the front-end server
  /// starts.
  Status Connect();

  server::Response Handle(const server::Request& request) override;
  void AddHealthPrefix(server::Json* health) const override;
  void AddHealthSuffix(server::Json* health) const override;
  void AddStatsFields(server::Json* stats) const override;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(options_.shards.size());
  }
  /// Next ordinal a ConfirmAssignment would consume (test hook).
  uint64_t next_ordinal() const {
    return next_ordinal_.load(std::memory_order_acquire);
  }

 private:
  struct ShardMetrics;

  /// Borrows a connected channel to `shard` from the pool (opening a new
  /// connection when the free list is empty).
  Result<server::Client> AcquireChannel(size_t shard);
  /// Returns a still-usable channel to the pool.
  void ReleaseChannel(size_t shard, server::Client channel);

  /// One unary RPC to one shard, with retry/reconnect. A response whose
  /// payload is a server-level error (Invalid, KeyError, ...) is returned
  /// as a Response for the caller to forward verbatim; only transport
  /// exhaustion fails the Result.
  Result<server::Response> CallShard(size_t shard, std::string_view method,
                                     const server::Json& params);

  /// Pipelined fan-out of the same request to every shard: send all, then
  /// gather in shard order, recording per-shard completion for the
  /// straggler gap histogram. Fail-fast on any transport failure.
  Result<std::vector<server::Response>> Scatter(std::string_view method,
                                                const server::Json& params);

  /// Two-round read routing shared by Recommend / RecommendForText:
  /// owner probe, then (unknown part) fallback scatter; merges partials
  /// and encodes the final recommendation.
  server::Response RouteQuery(const server::Request& request,
                              const std::string& part_id,
                              std::string_view shard_method,
                              server::Json params);

  server::Response HandleFullList(const server::Request& request);
  server::Response HandleDescribe(const server::Request& request);
  server::Response HandleConfirm(const server::Request& request);
  server::Response HandleDefine(const server::Request& request);

  Options options_;
  std::unique_ptr<Sharder> sharder_;
  /// All shards reported trained at Connect (front-end Health mirrors the
  /// single-node "trained" field with the cluster-wide AND).
  std::atomic<bool> all_trained_{false};
  /// Next global insertion ordinal for confirmed assignments. Seeded from
  /// max(shard ordinal_high) at Connect; fetch_add per confirm. Gaps (a
  /// confirm that merged into an existing node, or failed) are harmless —
  /// only relative order matters.
  std::atomic<uint64_t> next_ordinal_{0};
  /// Monotone per-request id for shard RPCs (responses are matched by
  /// connection order; the id is for log correlation only).
  std::atomic<int64_t> rpc_id_{1};

  std::mutex pool_mutex_;
  std::vector<std::vector<server::Client>> pool_;  // Per-shard free lists.

  /// Obs handles (resolved once; see DESIGN.md §11 naming).
  obs::Histogram* fanout_us_;
  obs::Histogram* straggler_gap_us_;
  obs::Counter* fallback_scatters_;
  obs::Counter* merges_;
  obs::Counter* merged_items_;
  obs::Counter* mutations_;
  obs::Counter* shard_retries_;
  std::vector<ShardMetrics> shard_metrics_;
};

}  // namespace qatk::cluster

#endif  // QATK_CLUSTER_COORDINATOR_H_
