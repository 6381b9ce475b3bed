#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/merge.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace qatk::cluster {

namespace {

using server::Json;
using server::Request;
using server::Response;

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return micros < 0 ? 0 : static_cast<uint64_t>(micros);
}

/// Error response in the exact shape Dispatch produces (empty object
/// result), so front-end errors are wire-identical to shard errors.
Response ErrorResponse(int64_t id, const Status& status) {
  Response response;
  response.id = id;
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
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    ShardMetrics metrics;
    metrics.rpc_us = registry.GetHistogram(
        "qatk_cluster_shard_rpc_us{shard=\"" + std::to_string(i) + "\"}");
    metrics.routed = registry.GetCounter(
        "qatk_cluster_routed_total{shard=\"" + std::to_string(i) + "\"}");
    shard_metrics_.push_back(metrics);
  }
}

Coordinator::~Coordinator() = default;

Result<server::Client> Coordinator::AcquireChannel(size_t shard) {
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
  channel.set_retry_policy(options_.retry_policy);
  // A failed connect is not yet fatal: the channel remembers the endpoint
  // and every caller drives it through a retry path that reconnects with
  // backoff — a shard mid-restart costs a retry, not a hard error.
  static_cast<void>(channel.Connect(endpoint.host, endpoint.port,
                                    options_.timeout_ms, /*rcvbuf_bytes=*/0,
                                    options_.connect_timeout_ms));
  return channel;
}

void Coordinator::ReleaseChannel(size_t shard, server::Client channel) {
  if (!channel.connected()) return;  // Broken channels are not pooled.
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_[shard].push_back(std::move(channel));
}

Result<Response> Coordinator::CallShard(size_t shard, std::string_view method,
                                        const Json& params) {
  QATK_ASSIGN_OR_RETURN(server::Client channel, AcquireChannel(shard));
  shard_metrics_[shard].routed->Add();
  const int64_t id = rpc_id_.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  int attempts = 0;
  Result<Response> reply =
      channel.CallWithRetry(id, method, params, /*deadline_ms=*/-1, &attempts);
  shard_metrics_[shard].rpc_us->Record(MicrosSince(start));
  if (attempts > 1) shard_retries_->Add(static_cast<uint64_t>(attempts - 1));
  if (!reply.ok()) {
    const ShardEndpoint& endpoint = options_.shards[shard];
    return Status::Unavailable("shard " + std::to_string(shard) + " (" +
                               endpoint.host + ":" +
                               std::to_string(endpoint.port) +
                               "): " + reply.status().message());
  }
  ReleaseChannel(shard, std::move(channel));
  return reply;
}

Result<std::vector<Response>> Coordinator::Scatter(std::string_view method,
                                                   const Json& params) {
  const size_t n = options_.shards.size();
  std::vector<server::Client> channels;
  channels.reserve(n);
  // Phase 1: send to every shard before reading any response, so the
  // shards execute the fan-out concurrently (pipelined scatter). One
  // reconnect absorbs a channel whose peer restarted while pooled.
  for (size_t i = 0; i < n; ++i) {
    QATK_ASSIGN_OR_RETURN(server::Client channel, AcquireChannel(i));
    channels.push_back(std::move(channel));
    shard_metrics_[i].routed->Add();
    const int64_t id = rpc_id_.fetch_add(1, std::memory_order_relaxed);
    Status sent = channels.back().Send(id, method, params);
    if (!sent.ok()) {
      Status reconnected = channels.back().Reconnect();
      if (reconnected.ok()) sent = channels.back().Send(id, method, params);
    }
    if (!sent.ok()) {
      const ShardEndpoint& endpoint = options_.shards[i];
      return Status::Unavailable("shard " + std::to_string(i) + " (" +
                                 endpoint.host + ":" +
                                 std::to_string(endpoint.port) +
                                 "): " + sent.message());
    }
  }
  // Phase 2: gather in shard order. Per-shard completion is measured from
  // the scatter start, so max-min is the straggler gap the merge waited
  // out. Fail-fast: a dead shard fails the whole request (no silently
  // partial merges); its channel is dropped, not pooled.
  const auto start = std::chrono::steady_clock::now();
  uint64_t fastest = 0, slowest = 0;
  std::vector<Response> responses;
  responses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Result<Response> reply = channels[i].Receive();
    const uint64_t completed_us = MicrosSince(start);
    if (!reply.ok()) {
      const ShardEndpoint& endpoint = options_.shards[i];
      return Status::Unavailable("shard " + std::to_string(i) + " (" +
                                 endpoint.host + ":" +
                                 std::to_string(endpoint.port) +
                                 "): " + reply.status().message());
    }
    shard_metrics_[i].rpc_us->Record(completed_us);
    fastest = (i == 0) ? completed_us : std::min(fastest, completed_us);
    slowest = std::max(slowest, completed_us);
    responses.push_back(std::move(reply).ValueOrDie());
    ReleaseChannel(i, std::move(channels[i]));
  }
  straggler_gap_us_->Record(slowest - fastest);
  return responses;
}

Response Coordinator::RouteQuery(const Request& request,
                                 const std::string& part_id,
                                 std::string_view shard_method, Json params) {
  obs::ScopedTimer fanout_span(fanout_us_);
  using ShardPartial = quest::RecommendationService::ShardPartial;
  std::vector<ShardPartial> partials;
  // Round 1: probe the owner alone. Every sharder makes ownership a pure
  // function of the part id, so a trained part is fully answered by one
  // shard — the common case costs one RPC, not a fan-out.
  const uint32_t owner = sharder_->ShardFor(part_id);
  params.Set("fallback", Json(false));
  Result<Response> probe = CallShard(owner, shard_method, params);
  if (!probe.ok()) return ErrorResponse(request.id, probe.status());
  Response reply = std::move(probe).ValueOrDie();
  if (!reply.ok()) {
    reply.id = request.id;  // Shard error (e.g. untrained): forward verbatim.
    return reply;
  }
  Result<ShardPartial> partial = server::ShardPartialFromJson(reply.result);
  if (!partial.ok()) return ErrorResponse(request.id, partial.status());
  if (partial.ValueOrDie().known_part) {
    partials.push_back(std::move(partial).ValueOrDie());
  } else {
    // Round 2: the part was never trained anywhere — run the single-node
    // unknown-part semantics (all-nodes sweep, zero-shared included)
    // across every shard and merge.
    fallback_scatters_->Add();
    params.Set("fallback", Json(true));
    Result<std::vector<Response>> scattered = Scatter(shard_method, params);
    if (!scattered.ok()) return ErrorResponse(request.id, scattered.status());
    for (Response& response : scattered.ValueOrDie()) {
      if (!response.ok()) {
        response.id = request.id;
        return response;
      }
      Result<ShardPartial> piece = server::ShardPartialFromJson(response.result);
      if (!piece.ok()) return ErrorResponse(request.id, piece.status());
      partials.push_back(std::move(piece).ValueOrDie());
    }
  }
  merges_->Add();
  for (const ShardPartial& piece : partials) {
    merged_items_->Add(piece.items.size());
  }
  MergedRecommendation merged =
      MergePartials(partials, options_.max_nodes, options_.top_n);
  Response response;
  response.id = request.id;
  response.code = StatusCode::kOk;
  response.result = server::RecommendationToJson(merged.recommendation);
  return response;
}

Response Coordinator::HandleFullList(const Request& request) {
  const std::string part_id = request.params.GetString("part_id");
  const uint32_t owner = sharder_->ShardFor(part_id);
  Result<Response> reply =
      CallShard(owner, "FullListForPart", request.params);
  if (!reply.ok()) return ErrorResponse(request.id, reply.status());
  Response response = std::move(reply).ValueOrDie();
  response.id = request.id;
  return response;
}

Response Coordinator::HandleDescribe(const Request& request) {
  // Corpus-trained descriptions are replicated on every shard, but a
  // description registered through DefineErrorCode lives only on the
  // defining part's owner — and the part is not in this request. Scatter
  // and take the first shard that knows the code.
  Result<std::vector<Response>> scattered =
      Scatter("DescribeCode", request.params);
  if (!scattered.ok()) return ErrorResponse(request.id, scattered.status());
  std::vector<Response>& responses = scattered.ValueOrDie();
  for (Response& response : responses) {
    if (response.ok()) {
      response.id = request.id;
      return response;
    }
  }
  // Nobody knows it: every shard produced the same single-node KeyError;
  // forward the first verbatim.
  responses.front().id = request.id;
  return responses.front();
}

Response Coordinator::HandleConfirm(const Request& request) {
  const std::string part_id = request.params.GetString("part_id");
  const uint32_t owner = sharder_->ShardFor(part_id);
  // Assign the global insertion ordinal the merge order rests on. The
  // counter advances even when the confirm later merges into an existing
  // node or fails — gaps are harmless, only relative order matters.
  const uint64_t ordinal =
      next_ordinal_.fetch_add(1, std::memory_order_acq_rel);
  Json params = request.params;
  params.Set("ordinal", Json(static_cast<int64_t>(ordinal)));
  Result<Response> reply = CallShard(owner, "ConfirmAssignment", params);
  if (!reply.ok()) return ErrorResponse(request.id, reply.status());
  Response response = std::move(reply).ValueOrDie();
  if (response.ok()) mutations_->Add();
  response.id = request.id;
  return response;
}

Response Coordinator::HandleDefine(const Request& request) {
  const std::string part_id = request.params.GetString("part_id");
  const std::string code = request.params.GetString("code");
  const std::string description = request.params.GetString("description");
  // Global description-conflict check (single-node semantics: the first
  // registration wins and is never silently overwritten). Manual
  // descriptions live only on their defining part's owner, so the check
  // must consult every shard, not just this part's owner.
  Json probe = Json::Object();
  probe.Set("code", Json(code));
  Result<std::vector<Response>> scattered = Scatter("DescribeCode", probe);
  if (!scattered.ok()) return ErrorResponse(request.id, scattered.status());
  for (const Response& response : scattered.ValueOrDie()) {
    if (!response.ok()) continue;  // This shard doesn't know the code.
    const std::string described = response.result.GetString("description");
    if (described != description) {
      return ErrorResponse(
          request.id,
          Status::AlreadyExists("error code '" + code +
                                "' already described as '" + described +
                                "'; refusing to overwrite"));
    }
  }
  const uint32_t owner = sharder_->ShardFor(part_id);
  Result<Response> reply =
      CallShard(owner, "DefineErrorCode", request.params);
  if (!reply.ok()) return ErrorResponse(request.id, reply.status());
  Response response = std::move(reply).ValueOrDie();
  if (response.ok()) mutations_->Add();
  response.id = request.id;
  return response;
}

Response Coordinator::Handle(const Request& request) {
  using server::Method;
  switch (request.method) {
    case Method::kRecommend:
      return RouteQuery(request, request.params.GetString("part_id"),
                        "ShardQuery", request.params);
    case Method::kRecommendForText:
      return RouteQuery(request, request.params.GetString("part_id"),
                        "ShardTopK", request.params);
    case Method::kFullListForPart:
      return HandleFullList(request);
    case Method::kDescribeCode:
      return HandleDescribe(request);
    case Method::kConfirmAssignment:
      return HandleConfirm(request);
    case Method::kDefineErrorCode:
      return HandleDefine(request);
    case Method::kShardQuery:
    case Method::kShardTopK:
      // Cluster-internal probes; only shard workers answer them.
      return ErrorResponse(
          request.id, Status::Invalid("method '" + request.method_name +
                                      "' requires a shard context"));
    case Method::kHealth:
    case Method::kStats:
    case Method::kMetricsText:
      return ErrorResponse(
          request.id, Status::Invalid("method '" + request.method_name +
                                      "' requires a server context"));
    case Method::kUnknown:
      break;
  }
  return ErrorResponse(request.id,
                       Status::Invalid("unknown method '" +
                                       request.method_name + "'"));
}

Status Coordinator::Connect() {
  const size_t n = options_.shards.size();
  if (n == 0) return Status::Invalid("cluster has no shards");
  if (sharder_ == nullptr) {
    return Status::Invalid("unknown sharder '" + options_.sharder + "'");
  }
  uint64_t ordinal_high = 0;
  bool all_trained = true;
  for (size_t i = 0; i < n; ++i) {
    Result<Response> reply = CallShard(i, "Health", Json::Object());
    if (!reply.ok()) return reply.status();
    const Response& response = reply.ValueOrDie();
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
