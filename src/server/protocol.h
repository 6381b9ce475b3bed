#ifndef QATK_SERVER_PROTOCOL_H_
#define QATK_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "kb/data_bundle.h"
#include "obs/metrics.h"
#include "quest/recommendation_service.h"
#include "server/json.h"

namespace qatk::server {

/// \brief Wire format of the QUEST serving protocol, fully decoupled from
/// sockets so every layer is unit-testable on plain byte buffers.
///
/// Framing: each message is a 4-byte big-endian unsigned payload length
/// followed by that many bytes of UTF-8 JSON. Zero-length frames are a
/// protocol error (there is no heartbeat at this layer; use the Health
/// method). Lengths above the configured cap are rejected before any
/// allocation, so a hostile prefix cannot balloon memory.
///
/// Request payload:   {"id": <int>, "method": "<name>",
///                     "deadline_ms": <int, optional>,
///                     "params": {...}}
/// Response payload:  {"id": <int>, "code": "<StatusCode name>",
///                     "message": "<error text, empty when OK>",
///                     "result": {...} | null}
///
/// `id` is an opaque client token echoed verbatim — with pipelining the
/// client matches responses to requests by id (responses on one
/// connection always arrive in request order).

/// Byte size of the length prefix.
inline constexpr size_t kLengthPrefixBytes = 4;

/// Default cap on a frame payload; a prefix above the cap closes the
/// connection (after an error response) rather than allocating.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/// Appends one length-prefixed frame carrying `payload` to `out`.
void AppendFrame(std::string_view payload, std::string* out);

/// Attempt to decode one frame from the front of `buffer`.
struct FrameDecode {
  enum class State {
    kFrame,     ///< One complete frame: `payload` + `consumed` are set.
    kNeedMore,  ///< The buffer holds only a prefix of a frame.
    kError,     ///< Unrecoverable framing error (oversized/zero length).
  };
  State state = State::kNeedMore;
  std::string_view payload;  ///< Valid only while `buffer` is unchanged.
  size_t consumed = 0;       ///< Bytes to drop from the front of `buffer`.
  std::string error;
};
FrameDecode DecodeFrame(std::string_view buffer,
                        size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Protocol methods. kUnknown is carried (not rejected) by ParseRequest so
/// the server can answer with a proper per-request error response.
enum class Method {
  kUnknown,
  kRecommend,
  kRecommendForText,
  kFullListForPart,
  kDescribeCode,
  kConfirmAssignment,
  kDefineErrorCode,
  kHealth,
  kStats,
  kMetricsText,
  /// Cluster-internal scatter-gather probes (DESIGN.md §14): a shard
  /// worker answers with its raw pre-dedup top-k partial instead of a
  /// deduped recommendation. Front-ends reject them (shard context only).
  kShardQuery,
  kShardTopK,
};

/// Number of Method values (kUnknown included); per-method metric tables
/// are indexed by static_cast<size_t>(method).
inline constexpr size_t kNumMethods =
    static_cast<size_t>(Method::kShardTopK) + 1;

const char* MethodToString(Method method);
Method MethodFromString(std::string_view name);

/// One decoded request.
struct Request {
  int64_t id = 0;
  std::string method_name;
  Method method = Method::kUnknown;
  /// Per-request deadline budget in milliseconds, measured by the server
  /// from the moment the request's bytes were read off the socket; < 0
  /// means no deadline.
  int64_t deadline_ms = -1;
  Json params;  ///< Always an object (possibly empty).
};

/// Parses a request payload. Fails only on malformed JSON, a non-object
/// document, or a missing/non-string "method"; an unrecognized method name
/// parses fine with method == kUnknown. `params` is moved out of the parsed
/// document, never deep-copied. Non-integral ids and deadlines truncate;
/// non-finite or out-of-int64-range ones read as absent (Json::GetInt).
Result<Request> ParseRequest(std::string_view payload);

/// ParseRequest + BundleFromParams without the Json tree: reads the
/// envelope into `*request` (every field but `params`, which is left as it
/// is) and the params straight into `*bundle`, assigning into the strings
/// they already own, so a warmed-up caller that reuses both allocates
/// nothing. Built on JsonCursor, the grammar Json::Parse uses, it accepts
/// exactly the payloads ParseRequest accepts, fails with the same error
/// text, and yields the same id, method and deadline, with `*bundle` equal
/// to BundleFromParams of the parsed params: a repeated key keeps its last
/// value, a non-string bundle field reads as "", and params that are not
/// an object give an empty bundle.
Status DecodeRequestInto(std::string_view payload, Request* request,
                         kb::DataBundle* bundle);

/// Client-side encoder: one request payload (not yet framed). Writes the
/// envelope keys directly and dumps `params` in place.
std::string EncodeRequest(int64_t id, std::string_view method,
                          const Json& params, int64_t deadline_ms = -1);

/// One decoded response.
struct Response {
  int64_t id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  Json result;

  bool ok() const { return code == StatusCode::kOk; }
};

/// Server-side encoder: one response payload (not yet framed). Writes the
/// envelope keys directly and dumps `result` in place (null unless `status`
/// is OK).
std::string EncodeResponse(int64_t id, const Status& status,
                           const Json& result);

/// EncodeResponse into a caller-owned buffer (appends, does not clear).
/// The event loops pass a per-loop scratch string so steady-state serving
/// re-uses one allocation per batch instead of one per response.
void EncodeResponseTo(int64_t id, const Status& status, const Json& result,
                      std::string* out);

/// Parses a response payload (client side). Unknown code names map to
/// kInternal rather than failing, so a newer server never strands an older
/// client without an error message. `result` is moved out of the parsed
/// document, never deep-copied.
Result<Response> ParseResponse(std::string_view payload);

/// Builds a kb::DataBundle from request params (all fields optional
/// strings; unknown keys ignored). Train-only fields (final report, error
/// code) are accepted so ConfirmAssignment can carry them.
kb::DataBundle BundleFromParams(const Json& params);

/// Client-side inverse of BundleFromParams: params carrying every bundle
/// field (empty fields included, harmless). BundleFromParams(
/// BundleToParams(b)) == b.
Json BundleToParams(const kb::DataBundle& bundle);

/// JSON shape of one ranked recommendation list.
Json RecommendationToJson(
    const quest::RecommendationService::Recommendation& recommendation);

/// The OK response to a Recommend, written straight to `out` (appends):
/// byte for byte EncodeResponseTo(id, Status::OK(),
/// RecommendationToJson(recommendation), out), without the tree.
void EncodeRecommendResponseTo(
    int64_t id,
    const quest::RecommendationService::Recommendation& recommendation,
    std::string* out);

/// JSON shape of one shard partial: {"known": b, "fallback": b, "items":
/// [{"code", "score", "ordinal"}, ...]}. Scores print through the JSON
/// codec's 17-digit to_chars (AppendJsonNumber), so the merge on the
/// coordinator side sees bit-identical doubles.
Json ShardPartialToJson(
    const quest::RecommendationService::ShardPartial& partial);

/// Coordinator-side inverse of ShardPartialToJson. Invalid on a result
/// that does not have the expected shape.
Result<quest::RecommendationService::ShardPartial> ShardPartialFromJson(
    const Json& result);

/// Executes one already-parsed service request against `service` and
/// returns the full response (id echoed, status mapped). Handles exactly
/// the service-backed methods; kHealth/kStats/kMetricsText are
/// server-level and must be intercepted by the caller, which owns those
/// counters (they fall through to an Invalid response here). Pure
/// request -> response: no sockets, no server state, unit-testable
/// directly.
Response Dispatch(quest::RecommendationService* service,
                  const Request& request);

/// Renders a registry snapshot in the Prometheus text exposition format:
/// counters and gauges as `name value`, histograms as cumulative
/// `name_bucket{le="..."}` series plus `name_sum` / `name_count`. Labels
/// embedded in a metric's name are preserved (`le` is spliced into the
/// existing label set). Values print through AppendJsonNumber, so the
/// round-trip contract of the JSON codec applies here too.
std::string RenderPrometheusText(const obs::RegistrySnapshot& snapshot);

}  // namespace qatk::server

#endif  // QATK_SERVER_PROTOCOL_H_
