#include "server/protocol.h"

#include <utility>

namespace qatk::server {

void AppendFrame(std::string_view payload, std::string* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out->push_back(static_cast<char>((len >> 24) & 0xFF));
  out->push_back(static_cast<char>((len >> 16) & 0xFF));
  out->push_back(static_cast<char>((len >> 8) & 0xFF));
  out->push_back(static_cast<char>(len & 0xFF));
  out->append(payload);
}

FrameDecode DecodeFrame(std::string_view buffer, size_t max_frame_bytes) {
  FrameDecode decode;
  if (buffer.size() < kLengthPrefixBytes) {
    decode.state = FrameDecode::State::kNeedMore;
    return decode;
  }
  const uint32_t len =
      (static_cast<uint32_t>(static_cast<unsigned char>(buffer[0])) << 24) |
      (static_cast<uint32_t>(static_cast<unsigned char>(buffer[1])) << 16) |
      (static_cast<uint32_t>(static_cast<unsigned char>(buffer[2])) << 8) |
      static_cast<uint32_t>(static_cast<unsigned char>(buffer[3]));
  if (len == 0) {
    decode.state = FrameDecode::State::kError;
    decode.error = "zero-length frame";
    return decode;
  }
  if (len > max_frame_bytes) {
    decode.state = FrameDecode::State::kError;
    decode.error = "frame of " + std::to_string(len) +
                   " bytes exceeds the " + std::to_string(max_frame_bytes) +
                   "-byte cap";
    return decode;
  }
  if (buffer.size() < kLengthPrefixBytes + len) {
    decode.state = FrameDecode::State::kNeedMore;
    return decode;
  }
  decode.state = FrameDecode::State::kFrame;
  decode.payload = buffer.substr(kLengthPrefixBytes, len);
  decode.consumed = kLengthPrefixBytes + len;
  return decode;
}

namespace {

struct MethodName {
  Method method;
  const char* name;
};

constexpr MethodName kMethodNames[] = {
    {Method::kRecommend, "Recommend"},
    {Method::kRecommendForText, "RecommendForText"},
    {Method::kFullListForPart, "FullListForPart"},
    {Method::kDescribeCode, "DescribeCode"},
    {Method::kConfirmAssignment, "ConfirmAssignment"},
    {Method::kDefineErrorCode, "DefineErrorCode"},
    {Method::kHealth, "Health"},
    {Method::kStats, "Stats"},
    {Method::kMetricsText, "MetricsText"},
    {Method::kShardQuery, "ShardQuery"},
    {Method::kShardTopK, "ShardTopK"},
};

/// The bundle fields request params carry, in BundleToParams order.
struct BundleField {
  std::string_view name;
  std::string kb::DataBundle::*member;
};

constexpr BundleField kBundleFields[] = {
    {"reference_number", &kb::DataBundle::reference_number},
    {"article_code", &kb::DataBundle::article_code},
    {"part_id", &kb::DataBundle::part_id},
    {"error_code", &kb::DataBundle::error_code},
    {"responsibility_code", &kb::DataBundle::responsibility_code},
    {"mechanic_report", &kb::DataBundle::mechanic_report},
    {"initial_oem_report", &kb::DataBundle::initial_oem_report},
    {"supplier_report", &kb::DataBundle::supplier_report},
    {"final_oem_report", &kb::DataBundle::final_oem_report},
};

/// Reads the value at the cursor the way Json::GetInt reads a member:
/// anything but a number in the int64 range reads as `fallback`.
Status ReadInt(JsonCursor* cursor, int depth, int64_t fallback,
               int64_t* out) {
  QATK_RETURN_NOT_OK(cursor->BeginValue(depth));
  const char first = cursor->Peek();
  if (first == '{' || first == '[' || first == '"') {
    *out = fallback;
    return cursor->SkipValue(depth);
  }
  Json scalar;
  QATK_RETURN_NOT_OK(cursor->ReadScalar(&scalar));
  *out = scalar.is_number() ? JsonNumberToInt(scalar.number_value(), fallback)
                            : fallback;
  return Status::OK();
}

/// Empties every field, keeping the strings' capacity.
void ClearBundle(kb::DataBundle* bundle) {
  for (const BundleField& field : kBundleFields) {
    (bundle->*field.member).clear();
  }
}

/// Reads the params value at the cursor into `bundle` the way
/// BundleFromParams reads a parsed params object: a repeated "params"
/// replaces the earlier one whole. `key` is scratch.
Status ReadBundle(JsonCursor* cursor, std::string* key,
                  kb::DataBundle* bundle) {
  ClearBundle(bundle);
  QATK_RETURN_NOT_OK(cursor->BeginValue(1));
  if (cursor->Peek() != '{') return cursor->SkipValue(1);
  for (bool more = cursor->EnterObject(); more;) {
    QATK_RETURN_NOT_OK(cursor->ReadKey(key));
    std::string* target = nullptr;
    for (const BundleField& field : kBundleFields) {
      if (std::string_view(*key) == field.name) {
        target = &(bundle->*field.member);
        break;
      }
    }
    if (target == nullptr) {
      QATK_RETURN_NOT_OK(cursor->SkipValue(2));
    } else {
      // A value that is not a string reads as "" (GetString's fallback).
      QATK_RETURN_NOT_OK(cursor->BeginValue(2));
      if (cursor->Peek() == '"') {
        QATK_RETURN_NOT_OK(cursor->ReadString(target));
      } else {
        target->clear();
        QATK_RETURN_NOT_OK(cursor->SkipValue(2));
      }
    }
    QATK_RETURN_NOT_OK(cursor->NextMember(&more));
  }
  return Status::OK();
}

/// The envelope of a response up to its result value:
/// {"id":<id>,"code":"<code>","message":"<message>","result":
void AppendResponseHead(int64_t id, const Status& status, std::string* out) {
  out->append("{\"id\":");
  AppendJsonNumber(static_cast<double>(id), out);
  out->append(",\"code\":\"");
  JsonEscape(StatusCodeToString(status.code()), out);
  out->append("\",\"message\":\"");
  JsonEscape(status.message(), out);
  out->append("\",\"result\":");
}

Json ScoredCodesToJson(const std::vector<core::ScoredCode>& codes) {
  Json array = Json::Array();
  array.Reserve(codes.size());
  for (const core::ScoredCode& scored : codes) {
    Json entry = Json::Object();
    entry.Reserve(2);
    entry.Set("code", Json(scored.error_code));
    entry.Set("score", Json(scored.score));
    array.Append(std::move(entry));
  }
  return array;
}

}  // namespace

const char* MethodToString(Method method) {
  for (const MethodName& entry : kMethodNames) {
    if (entry.method == method) return entry.name;
  }
  return "Unknown";
}

Method MethodFromString(std::string_view name) {
  for (const MethodName& entry : kMethodNames) {
    if (name == entry.name) return entry.method;
  }
  return Method::kUnknown;
}

Result<Request> ParseRequest(std::string_view payload) {
  QATK_ASSIGN_OR_RETURN(Json document, Json::Parse(payload));
  if (!document.is_object()) {
    return Status::Invalid("request payload is not a JSON object");
  }
  const Json* method = document.Find("method");
  if (method == nullptr || !method->is_string()) {
    return Status::Invalid("request is missing a string \"method\"");
  }
  Request request;
  request.id = document.GetInt("id", 0);
  request.method_name = method->string_value();
  request.method = MethodFromString(request.method_name);
  request.deadline_ms = document.GetInt("deadline_ms", -1);
  // The document dies here, so params move out instead of being copied.
  Json* params = document.Find("params");
  request.params = (params != nullptr && params->is_object())
                       ? std::move(*params)
                       : Json::Object();
  return request;
}

Status DecodeRequestInto(std::string_view payload, Request* request,
                         kb::DataBundle* bundle) {
  // The checks and their order are ParseRequest's: the whole document
  // must parse before "not an object" or "missing method" is reported.
  JsonCursor cursor(payload);
  QATK_RETURN_NOT_OK(cursor.BeginValue(0));
  if (cursor.Peek() != '{') {
    QATK_RETURN_NOT_OK(cursor.SkipValue(0));
    QATK_RETURN_NOT_OK(cursor.Finish());
    return Status::Invalid("request payload is not a JSON object");
  }
  // Member keys, read into one string per thread: bundle field names such
  // as "responsibility_code" outgrow the small-string buffer, so a fresh
  // string would allocate on every request.
  thread_local std::string key;
  request->id = 0;
  request->deadline_ms = -1;
  bool method_is_string = false;
  ClearBundle(bundle);
  for (bool more = cursor.EnterObject(); more;) {
    QATK_RETURN_NOT_OK(cursor.ReadKey(&key));
    const std::string_view name = key;
    if (name == "id") {
      QATK_RETURN_NOT_OK(ReadInt(&cursor, 1, 0, &request->id));
    } else if (name == "deadline_ms") {
      QATK_RETURN_NOT_OK(ReadInt(&cursor, 1, -1, &request->deadline_ms));
    } else if (name == "method") {
      QATK_RETURN_NOT_OK(cursor.BeginValue(1));
      method_is_string = cursor.Peek() == '"';
      QATK_RETURN_NOT_OK(method_is_string
                             ? cursor.ReadString(&request->method_name)
                             : cursor.SkipValue(1));
    } else if (name == "params") {
      QATK_RETURN_NOT_OK(ReadBundle(&cursor, &key, bundle));
    } else {
      QATK_RETURN_NOT_OK(cursor.SkipValue(1));
    }
    QATK_RETURN_NOT_OK(cursor.NextMember(&more));
  }
  QATK_RETURN_NOT_OK(cursor.Finish());
  if (!method_is_string) {
    return Status::Invalid("request is missing a string \"method\"");
  }
  request->method = MethodFromString(request->method_name);
  return Status::OK();
}

// The envelope writers below print their fixed keys directly and dump the
// caller's params/result in place. The bytes are exactly those of Dump()
// on an object holding the same members in the same order; the golden
// frames pin this.

std::string EncodeRequest(int64_t id, std::string_view method,
                          const Json& params, int64_t deadline_ms) {
  std::string out = "{\"id\":";
  AppendJsonNumber(static_cast<double>(id), &out);
  out.append(",\"method\":\"");
  JsonEscape(method, &out);
  out.push_back('"');
  if (deadline_ms >= 0) {
    out.append(",\"deadline_ms\":");
    AppendJsonNumber(static_cast<double>(deadline_ms), &out);
  }
  out.append(",\"params\":");
  params.DumpTo(&out);
  out.push_back('}');
  return out;
}

std::string EncodeResponse(int64_t id, const Status& status,
                           const Json& result) {
  std::string out;
  EncodeResponseTo(id, status, result, &out);
  return out;
}

void EncodeResponseTo(int64_t id, const Status& status, const Json& result,
                      std::string* out) {
  AppendResponseHead(id, status, out);
  if (status.ok()) {
    result.DumpTo(out);
  } else {
    out->append("null");
  }
  out->push_back('}');
}

Result<Response> ParseResponse(std::string_view payload) {
  QATK_ASSIGN_OR_RETURN(Json document, Json::Parse(payload));
  if (!document.is_object()) {
    return Status::Invalid("response payload is not a JSON object");
  }
  Response response;
  response.id = document.GetInt("id", 0);
  const std::string code = document.GetString("code", "Internal");
  response.code = StatusCode::kInternal;
  for (int c = 0; c <= static_cast<int>(StatusCode::kDeadlineExceeded); ++c) {
    if (code == StatusCodeToString(static_cast<StatusCode>(c))) {
      response.code = static_cast<StatusCode>(c);
      break;
    }
  }
  response.message = document.GetString("message");
  Json* result = document.Find("result");
  if (result != nullptr) response.result = std::move(*result);
  return response;
}

kb::DataBundle BundleFromParams(const Json& params) {
  kb::DataBundle bundle;
  for (const BundleField& field : kBundleFields) {
    bundle.*field.member = params.GetString(field.name);
  }
  return bundle;
}

Json BundleToParams(const kb::DataBundle& bundle) {
  Json params = Json::Object();
  for (const BundleField& field : kBundleFields) {
    params.Set(std::string(field.name), Json(bundle.*field.member));
  }
  return params;
}

Json RecommendationToJson(
    const quest::RecommendationService::Recommendation& recommendation) {
  Json result = Json::Object();
  result.Reserve(2);
  result.Set("top", ScoredCodesToJson(recommendation.top));
  result.Set("truncated", Json(recommendation.truncated));
  return result;
}

void EncodeRecommendResponseTo(
    int64_t id,
    const quest::RecommendationService::Recommendation& recommendation,
    std::string* out) {
  AppendResponseHead(id, Status::OK(), out);
  out->append("{\"top\":[");
  bool first = true;
  for (const core::ScoredCode& scored : recommendation.top) {
    out->append(first ? "{\"code\":\"" : ",{\"code\":\"");
    first = false;
    JsonEscape(scored.error_code, out);
    out->append("\",\"score\":");
    AppendJsonNumber(scored.score, out);
    out->push_back('}');
  }
  out->append(recommendation.truncated ? "],\"truncated\":true}}"
                                       : "],\"truncated\":false}}");
}

Json ShardPartialToJson(
    const quest::RecommendationService::ShardPartial& partial) {
  Json result = Json::Object();
  result.Reserve(3);
  result.Set("known", Json(partial.known_part));
  result.Set("fallback", Json(partial.fallback));
  Json items = Json::Array();
  items.Reserve(partial.items.size());
  for (const auto& item : partial.items) {
    Json entry = Json::Object();
    entry.Reserve(3);
    entry.Set("code", Json(item.error_code));
    entry.Set("score", Json(item.score));
    entry.Set("ordinal", Json(static_cast<int64_t>(item.ordinal)));
    items.Append(std::move(entry));
  }
  result.Set("items", std::move(items));
  return result;
}

Result<quest::RecommendationService::ShardPartial> ShardPartialFromJson(
    const Json& result) {
  if (!result.is_object()) {
    return Status::Invalid("shard partial is not a JSON object");
  }
  quest::RecommendationService::ShardPartial partial;
  partial.known_part = result.GetBool("known", false);
  partial.fallback = result.GetBool("fallback", false);
  const Json* items = result.Find("items");
  if (items == nullptr || !items->is_array()) {
    return Status::Invalid("shard partial is missing its \"items\" array");
  }
  partial.items.reserve(items->items().size());
  for (const Json& entry : items->items()) {
    if (!entry.is_object()) {
      return Status::Invalid("shard partial item is not a JSON object");
    }
    quest::RecommendationService::ShardPartialItem item;
    item.error_code = entry.GetString("code");
    item.score = entry.GetNumber("score", 0);
    item.ordinal = static_cast<uint64_t>(entry.GetInt("ordinal", 0));
    partial.items.push_back(std::move(item));
  }
  return partial;
}

Response Dispatch(quest::RecommendationService* service,
                  const Request& request) {
  Response response;
  response.id = request.id;
  Status status;
  Json result = Json::Object();
  switch (request.method) {
    case Method::kRecommend: {
      auto recommendation =
          service->Recommend(BundleFromParams(request.params));
      status = recommendation.status();
      if (recommendation.ok()) {
        result = RecommendationToJson(*recommendation);
      }
      break;
    }
    case Method::kRecommendForText: {
      auto recommendation = service->RecommendForText(
          request.params.GetString("part_id"),
          request.params.GetString("text"));
      status = recommendation.status();
      if (recommendation.ok()) {
        result = RecommendationToJson(*recommendation);
      }
      break;
    }
    case Method::kFullListForPart: {
      result.Set("codes", ScoredCodesToJson(service->FullListForPart(
                      request.params.GetString("part_id"))));
      break;
    }
    case Method::kDescribeCode: {
      auto description =
          service->DescribeCode(request.params.GetString("code"));
      status = description.status();
      if (description.ok()) {
        result.Set("description", Json(*description));
      }
      break;
    }
    case Method::kConfirmAssignment: {
      status = service->ConfirmAssignment(
          BundleFromParams(request.params),
          request.params.GetString("error_code"),
          request.params.GetInt("ordinal", -1));
      break;
    }
    case Method::kDefineErrorCode: {
      status = service->DefineErrorCode(
          request.params.GetString("part_id"),
          request.params.GetString("code"),
          request.params.GetString("description"));
      break;
    }
    case Method::kShardQuery: {
      auto partial =
          service->ShardTopK(BundleFromParams(request.params),
                             request.params.GetBool("fallback", false));
      status = partial.status();
      if (partial.ok()) result = ShardPartialToJson(*partial);
      break;
    }
    case Method::kShardTopK: {
      auto partial = service->ShardTopKForText(
          request.params.GetString("part_id"),
          request.params.GetString("text"),
          request.params.GetBool("fallback", false));
      status = partial.status();
      if (partial.ok()) result = ShardPartialToJson(*partial);
      break;
    }
    case Method::kHealth:
    case Method::kStats:
    case Method::kMetricsText:
      // Server-level methods: the event loop answers these from its own
      // counters before ever reaching Dispatch.
      status = Status::Invalid("method '" + request.method_name +
                               "' requires a server context");
      break;
    case Method::kUnknown:
      status = Status::Invalid("unknown method '" + request.method_name +
                               "'");
      break;
  }
  response.code = status.code();
  response.message = status.message();
  response.result = std::move(result);
  return response;
}

namespace {

/// Splits "name{labels}" into its base name and brace-less label body
/// ("" when unlabeled).
void SplitLabels(const std::string& name, std::string_view* base,
                 std::string_view* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    *labels = {};
    return;
  }
  *base = std::string_view(name).substr(0, brace);
  // Between '{' and the trailing '}'.
  *labels = std::string_view(name).substr(brace + 1,
                                          name.size() - brace - 2);
}

/// Appends `base` with `suffix` plus the label body and one extra label.
void AppendSeries(std::string_view base, const char* suffix,
                  std::string_view labels, const std::string& extra_label,
                  std::string* out) {
  out->append(base);
  out->append(suffix);
  if (!labels.empty() || !extra_label.empty()) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && !extra_label.empty()) out->push_back(',');
    out->append(extra_label);
    out->push_back('}');
  }
}

/// Emits a `# TYPE` header once per base name (snapshot maps are
/// name-sorted, so same-base entries are adjacent).
void MaybeTypeLine(std::string_view base, const char* type,
                   std::string_view* last_base, std::string* out) {
  if (base == *last_base) return;
  *last_base = base;
  out->append("# TYPE ");
  out->append(base);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

}  // namespace

std::string RenderPrometheusText(const obs::RegistrySnapshot& snapshot) {
  std::string out;
  std::string_view last_base;
  for (const auto& [name, value] : snapshot.counters) {
    std::string_view base, labels;
    SplitLabels(name, &base, &labels);
    MaybeTypeLine(base, "counter", &last_base, &out);
    out.append(name);
    out.push_back(' ');
    AppendJsonNumber(static_cast<double>(value), &out);
    out.push_back('\n');
  }
  last_base = {};
  for (const auto& [name, value] : snapshot.gauges) {
    std::string_view base, labels;
    SplitLabels(name, &base, &labels);
    MaybeTypeLine(base, "gauge", &last_base, &out);
    out.append(name);
    out.push_back(' ');
    AppendJsonNumber(static_cast<double>(value), &out);
    out.push_back('\n');
  }
  last_base = {};
  for (const auto& [name, hist] : snapshot.histograms) {
    std::string_view base, labels;
    SplitLabels(name, &base, &labels);
    MaybeTypeLine(base, "histogram", &last_base, &out);
    uint64_t cumulative = 0;
    for (int i = 0; i < obs::kHistogramBuckets; ++i) {
      cumulative += hist.counts[i];
      // Values are integral microseconds, so the inclusive `le` bound of
      // bucket i is the next bucket's lower bound minus one — exact, no
      // boundary value is ever attributed to the wrong side.
      const std::string le =
          i + 1 < obs::kHistogramBuckets
              ? "le=\"" +
                    JsonNumberToString(static_cast<double>(
                        obs::BucketLowerBound(i + 1) - 1)) +
                    "\""
              : std::string("le=\"+Inf\"");
      AppendSeries(base, "_bucket", labels, le, &out);
      out.push_back(' ');
      AppendJsonNumber(static_cast<double>(cumulative), &out);
      out.push_back('\n');
    }
    AppendSeries(base, "_sum", labels, "", &out);
    out.push_back(' ');
    AppendJsonNumber(static_cast<double>(hist.sum), &out);
    out.push_back('\n');
    AppendSeries(base, "_count", labels, "", &out);
    out.push_back(' ');
    AppendJsonNumber(static_cast<double>(hist.total), &out);
    out.push_back('\n');
  }
  return out;
}

}  // namespace qatk::server
