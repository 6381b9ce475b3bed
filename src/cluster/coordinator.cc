#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "cluster/merge.h"
#include "common/logging.h"
#include "common/retry.h"
#include "obs/trace.h"

namespace qatk::cluster {

namespace {

using server::Json;
using server::Request;
using server::Response;

/// Per-RPC socket timeouts of every shard channel (see Client::Connect).
constexpr int kShardTimeoutMs = 5000;
constexpr int kShardConnectTimeoutMs = 5000;

/// Attempts one shard gets per fan-out: the pipelined send/receive, then
/// the channel's CallWithRetry with the rest of the budget.
constexpr int kShardAttempts = 4;

/// Retry policy of the attempts after the pipelined one: jittered, so the
/// front-end loops do not retry a restarting shard in lockstep.
RetryPolicy ShardRetryPolicy() {
  return RetryPolicy(RetryPolicy::Options{
      /*max_attempts=*/kShardAttempts - 1,
      /*base_backoff=*/std::chrono::microseconds(500),
      /*jitter=*/0.25, /*seed=*/0x9e3779b97f4a7c15ull});
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return micros < 0 ? 0 : static_cast<uint64_t>(micros);
}

/// Error response in the exact shape Dispatch produces (empty object
/// result), so front-end errors are wire-identical to shard errors.
Response ErrorResponse(const Status& status) {
  Response response;
  response.code = status.code();
  response.message = status.message();
  response.result = Json::Object();
  return response;
}

}  // namespace

struct Coordinator::ShardMetrics {
  obs::Histogram* rpc_us = nullptr;
  obs::Counter* routed = nullptr;
};

Coordinator::Coordinator(Options options)
    : options_(std::move(options)),
      sharder_(MakeSharder(options_.sharder,
                           static_cast<uint32_t>(options_.shards.size()))),
      pool_(options_.shards.size()) {
  obs::Registry& registry = obs::Registry::Global();
  fanout_us_ = registry.GetHistogram("qatk_cluster_fanout_us");
  straggler_gap_us_ = registry.GetHistogram("qatk_cluster_straggler_gap_us");
  fallback_scatters_ =
      registry.GetCounter("qatk_cluster_fallback_scatters_total");
  merges_ = registry.GetCounter("qatk_cluster_merges_total");
  merged_items_ = registry.GetCounter("qatk_cluster_merged_items_total");
  mutations_ = registry.GetCounter("qatk_cluster_mutations_total");
  shard_retries_ = registry.GetCounter("qatk_cluster_shard_retries_total");
  shard_metrics_.reserve(options_.shards.size());
  for (uint32_t i = 0; i < options_.shards.size(); ++i) {
    ShardMetrics metrics;
    metrics.rpc_us = registry.GetHistogram(
        "qatk_cluster_shard_rpc_us{shard=\"" + std::to_string(i) + "\"}");
    metrics.routed = registry.GetCounter(
        "qatk_cluster_routed_total{shard=\"" + std::to_string(i) + "\"}");
    shard_metrics_.push_back(metrics);
    all_shards_.push_back(i);
  }
}

Coordinator::~Coordinator() = default;

server::Client Coordinator::AcquireChannel(uint32_t shard) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    std::vector<server::Client>& free_list = pool_[shard];
    if (!free_list.empty()) {
      server::Client channel = std::move(free_list.back());
      free_list.pop_back();
      return channel;
    }
  }
  const ShardEndpoint& endpoint = options_.shards[shard];
  server::Client channel;
  channel.set_retry_policy(ShardRetryPolicy());
  // A failed connect is not yet fatal: the channel remembers the endpoint,
  // and CallShards retries it through CallWithRetry, which reconnects with
  // backoff — a shard mid-restart costs a retry, not a hard error.
  static_cast<void>(channel.Connect(endpoint.host, endpoint.port,
                                    kShardTimeoutMs, /*rcvbuf_bytes=*/0,
                                    kShardConnectTimeoutMs));
  return channel;
}

void Coordinator::ReleaseChannel(uint32_t shard, server::Client channel) {
  if (!channel.connected()) return;  // Broken channels are not pooled.
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_[shard].push_back(std::move(channel));
}

Result<std::vector<Response>> Coordinator::CallShards(
    const std::vector<uint32_t>& shards, std::string_view method,
    const Json& params) {
  const auto start = std::chrono::steady_clock::now();
  const int64_t first_id = rpc_id_.fetch_add(
      static_cast<int64_t>(shards.size()), std::memory_order_relaxed);
  // Phase 1: send to every shard before reading any reply, so the shards
  // execute the fan-out concurrently. A channel whose send failed is
  // dropped; phase 2 retries it.
  std::vector<server::Client> channels;
  channels.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    shard_metrics_[shards[i]].routed->Add();
    server::Client& channel = channels.emplace_back(AcquireChannel(shards[i]));
    const int64_t id = first_id + static_cast<int64_t>(i);
    if (!channel.Send(id, method, params).ok()) channel.Close();
  }
  // Phase 2: gather in order. Per-shard completion is measured from the
  // fan-out start, so max-min is the straggler gap the merge waited out.
  uint64_t fastest = std::numeric_limits<uint64_t>::max(), slowest = 0;
  std::vector<Response> replies;
  replies.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const uint32_t shard = shards[i];
    server::Client& channel = channels[i];
    Result<Response> reply = Status::Unavailable("send failed");
    if (channel.connected()) reply = channel.Receive();
    if (!reply.ok() || IsTransient(Status(reply->code, {}))) {
      // The pipelined attempt failed: retry this shard alone. A broken
      // channel (peer restarted while pooled, mid-frame read) is dropped
      // so CallWithRetry reconnects before its first attempt.
      if (!reply.ok()) channel.Close();
      int attempts = 0;
      reply = channel.CallWithRetry(first_id + static_cast<int64_t>(i),
                                    method, params, /*deadline_ms=*/-1,
                                    &attempts);
      shard_retries_->Add(static_cast<uint64_t>(attempts));
    }
    if (!reply.ok()) {
      // Fail-fast: no silently partial merges. The channels not yet read
      // hold unread replies, so they close with this scope, unpooled.
      const ShardEndpoint& endpoint = options_.shards[shard];
      return Status::Unavailable("shard " + std::to_string(shard) + " (" +
                                 endpoint.host + ":" +
                                 std::to_string(endpoint.port) +
                                 "): " + reply.status().message());
    }
    const uint64_t completed_us = MicrosSince(start);
    shard_metrics_[shard].rpc_us->Record(completed_us);
    fastest = std::min(fastest, completed_us);
    slowest = std::max(slowest, completed_us);
    replies.push_back(std::move(reply).ValueOrDie());
    ReleaseChannel(shard, std::move(channel));
  }
  if (shards.size() > 1) straggler_gap_us_->Record(slowest - fastest);
  return replies;
}

Result<Response> Coordinator::CallOwner(std::string_view method,
                                        const Json& params) {
  const uint32_t owner = sharder_->ShardFor(params.GetString("part_id"));
  QATK_ASSIGN_OR_RETURN(std::vector<Response> replies,
                        CallShards({owner}, method, params));
  return std::move(replies.front());
}

Result<Response> Coordinator::RouteQuery(std::string_view shard_method,
                                         Json params) {
  obs::ScopedTimer fanout_span(fanout_us_);
  using ShardPartial = quest::RecommendationService::ShardPartial;
  std::vector<ShardPartial> partials;
  // Round 1 probes the owner alone. The sharder makes ownership a pure
  // function of the part id, so a trained part is fully answered by one
  // shard — the common case costs one RPC, not a fan-out. Round 2 runs
  // only when the part was never trained anywhere: the single-node
  // unknown-part semantics (all-nodes sweep, zero-shared included)
  // across every shard, merged.
  const std::vector<uint32_t> owner = {
      sharder_->ShardFor(params.GetString("part_id"))};
  for (const bool fallback : {false, true}) {
    params.Set("fallback", Json(fallback));
    QATK_ASSIGN_OR_RETURN(
        std::vector<Response> replies,
        CallShards(fallback ? all_shards_ : owner, shard_method, params));
    for (Response& reply : replies) {
      // A shard error (e.g. untrained) is forwarded verbatim.
      if (!reply.ok()) return std::move(reply);
      QATK_ASSIGN_OR_RETURN(ShardPartial partial,
                            server::ShardPartialFromJson(reply.result));
      partials.push_back(std::move(partial));
    }
    if (fallback || partials.front().known_part) break;
    partials.clear();
    fallback_scatters_->Add();
  }
  merges_->Add();
  for (const ShardPartial& piece : partials) {
    merged_items_->Add(piece.items.size());
  }
  using ServiceOptions = quest::RecommendationService::Options;
  MergedRecommendation merged =
      MergePartials(partials, ServiceOptions::max_nodes, ServiceOptions::top_n);
  Response response;
  response.code = StatusCode::kOk;
  response.result = server::RecommendationToJson(merged.recommendation);
  return response;
}

Result<Response> Coordinator::HandleDescribe(const Json& params) {
  // Corpus-trained descriptions are replicated on every shard, but a
  // description registered through DefineErrorCode lives only on the
  // defining part's owner — and the part is not in this request. Scatter
  // and take the first shard that knows the code.
  QATK_ASSIGN_OR_RETURN(std::vector<Response> replies,
                        CallShards(all_shards_, "DescribeCode", params));
  for (Response& reply : replies) {
    if (reply.ok()) return std::move(reply);
  }
  // Nobody knows it: every shard produced the same single-node KeyError;
  // forward the first verbatim.
  return std::move(replies.front());
}

Result<Response> Coordinator::HandleConfirm(const Json& params) {
  // Assign the global insertion ordinal the merge order rests on. The
  // counter advances even when the confirm later merges into an existing
  // node or fails — gaps are harmless, only relative order matters.
  const uint64_t ordinal =
      next_ordinal_.fetch_add(1, std::memory_order_acq_rel);
  Json ordered = params;
  ordered.Set("ordinal", Json(static_cast<int64_t>(ordinal)));
  QATK_ASSIGN_OR_RETURN(Response reply,
                        CallOwner("ConfirmAssignment", ordered));
  if (reply.ok()) mutations_->Add();
  return reply;
}

Result<Response> Coordinator::HandleDefine(const Json& params) {
  const std::string code = params.GetString("code");
  const std::string description = params.GetString("description");
  // Global description-conflict check (single-node semantics: the first
  // registration wins and is never silently overwritten). Manual
  // descriptions live only on their defining part's owner, so the check
  // must consult every shard, not just this part's owner. The check and
  // the define run under one lock: two defines of one code on parts of
  // different shards could otherwise both pass the check.
  std::lock_guard<std::mutex> lock(define_mutex_);
  Json probe = Json::Object();
  probe.Set("code", Json(code));
  QATK_ASSIGN_OR_RETURN(std::vector<Response> replies,
                        CallShards(all_shards_, "DescribeCode", probe));
  for (const Response& reply : replies) {
    if (!reply.ok()) continue;  // This shard doesn't know the code.
    const std::string described = reply.result.GetString("description");
    if (described != description) {
      return Status::AlreadyExists("error code '" + code +
                                   "' already described as '" + described +
                                   "'; refusing to overwrite");
    }
  }
  QATK_ASSIGN_OR_RETURN(Response reply, CallOwner("DefineErrorCode", params));
  if (reply.ok()) mutations_->Add();
  return reply;
}

Result<Response> Coordinator::Route(const Request& request) {
  using server::Method;
  switch (request.method) {
    case Method::kRecommend:
      return RouteQuery("ShardQuery", request.params);
    case Method::kRecommendForText:
      return RouteQuery("ShardTopK", request.params);
    case Method::kFullListForPart:
      return CallOwner("FullListForPart", request.params);
    case Method::kDescribeCode:
      return HandleDescribe(request.params);
    case Method::kConfirmAssignment:
      return HandleConfirm(request.params);
    case Method::kDefineErrorCode:
      return HandleDefine(request.params);
    case Method::kShardQuery:
    case Method::kShardTopK:
      // Cluster-internal probes; only shard workers answer them.
      return Status::Invalid("method '" + request.method_name +
                             "' requires a shard context");
    case Method::kHealth:
    case Method::kStats:
    case Method::kMetricsText:
      return Status::Invalid("method '" + request.method_name +
                             "' requires a server context");
    case Method::kUnknown:
      break;
  }
  return Status::Invalid("unknown method '" + request.method_name + "'");
}

Response Coordinator::Handle(const Request& request) {
  Result<Response> routed = Route(request);
  Response response = routed.ok() ? std::move(routed).ValueOrDie()
                                  : ErrorResponse(routed.status());
  response.id = request.id;
  return response;
}

Status Coordinator::Connect() {
  const size_t n = options_.shards.size();
  if (n == 0) return Status::Invalid("cluster has no shards");
  if (sharder_ == nullptr) {
    return Status::Invalid("unknown sharder '" + options_.sharder + "'");
  }
  QATK_ASSIGN_OR_RETURN(std::vector<Response> replies,
                        CallShards(all_shards_, "Health", Json::Object()));
  uint64_t ordinal_high = 0;
  bool all_trained = true;
  for (size_t i = 0; i < n; ++i) {
    const Response& response = replies[i];
    if (!response.ok()) {
      return Status::Unavailable("shard " + std::to_string(i) +
                                 " Health failed: " + response.message);
    }
    const Json& health = response.result;
    all_trained = all_trained && health.GetBool("trained", false);
    const Json* shard = health.Find("shard");
    if (shard == nullptr) {
      return Status::Invalid("shard " + std::to_string(i) +
                             " is not shard-scoped (no \"shard\" object in "
                             "Health); was it started with --shards?");
    }
    const int64_t index = shard->GetInt("index", -1);
    const int64_t count = shard->GetInt("shards", -1);
    const std::string sharder = shard->GetString("sharder");
    if (index != static_cast<int64_t>(i) ||
        count != static_cast<int64_t>(n) || sharder != options_.sharder) {
      return Status::Invalid(
          "shard " + std::to_string(i) + " identity mismatch: reports " +
          "index=" + std::to_string(index) + " shards=" +
          std::to_string(count) + " sharder='" + sharder + "', expected " +
          "index=" + std::to_string(i) + " shards=" + std::to_string(n) +
          " sharder='" + options_.sharder + "'");
    }
    ordinal_high = std::max(
        ordinal_high, static_cast<uint64_t>(shard->GetInt("ordinal_high", 0)));
  }
  all_trained_.store(all_trained, std::memory_order_release);
  next_ordinal_.store(ordinal_high, std::memory_order_release);
  QATK_LOG(INFO) << "cluster coordinator connected: " << n << " shards, "
                 << "sharder=" << options_.sharder
                 << ", next ordinal " << ordinal_high;
  return Status::OK();
}

void Coordinator::AddHealthPrefix(Json* health) const {
  // Mirrors the single-node "trained" field with the cluster-wide AND
  // observed at Connect.
  health->Set("trained",
              Json(all_trained_.load(std::memory_order_acquire)));
}

void Coordinator::AddHealthSuffix(Json* health) const {
  Json cluster = Json::Object();
  cluster.Set("shards", Json(static_cast<int64_t>(options_.shards.size())));
  cluster.Set("sharder", Json(options_.sharder));
  cluster.Set("ordinal_next", Json(static_cast<int64_t>(
                                  next_ordinal_.load(std::memory_order_acquire))));
  health->Set("cluster", std::move(cluster));
}

void Coordinator::AddStatsFields(Json* stats) const {
  Json cluster = Json::Object();
  cluster.Set("shards", Json(static_cast<int64_t>(options_.shards.size())));
  cluster.Set("fallback_scatters",
              Json(static_cast<int64_t>(fallback_scatters_->Value())));
  cluster.Set("merges", Json(static_cast<int64_t>(merges_->Value())));
  cluster.Set("merged_items",
              Json(static_cast<int64_t>(merged_items_->Value())));
  cluster.Set("mutations", Json(static_cast<int64_t>(mutations_->Value())));
  cluster.Set("shard_retries",
              Json(static_cast<int64_t>(shard_retries_->Value())));
  stats->Set("cluster", std::move(cluster));
}

}  // namespace qatk::cluster
