#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/oem.h"
#include "datagen/world.h"
#include "quest/recommendation_service.h"
#include "server/json.h"
#include "server/protocol.h"

namespace qatk::server {
namespace {

// ---------------------------------------------------------------------------
// JSON codec

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":1,"b":[true,false,null],"c":{"nested":"x"},"d":-2.5})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, MemberOrderIsInsertionOrder) {
  Json object = Json::Object();
  object.Set("zebra", Json(static_cast<int64_t>(1)));
  object.Set("alpha", Json(static_cast<int64_t>(2)));
  object.Set("mid", Json(static_cast<int64_t>(3)));
  EXPECT_EQ(object.Dump(), R"({"zebra":1,"alpha":2,"mid":3})");
  object.Set("alpha", Json(static_cast<int64_t>(9)));  // Overwrite in place.
  EXPECT_EQ(object.Dump(), R"({"zebra":1,"alpha":9,"mid":3})");
}

TEST(JsonTest, DoubleRoundTripIsBitIdentical) {
  const double values[] = {0.1,         1.0 / 3.0, 6.02214076e23,
                           -2.5e-308,   3.14159,   123456789.123456789,
                           0.0,         -0.0,      42.0};
  for (const double value : values) {
    Json document = Json::Object();
    document.Set("v", Json(value));
    auto parsed = Json::Parse(document.Dump());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const double back = parsed->GetNumber("v", 12345.0);
    EXPECT_EQ(std::memcmp(&back, &value, sizeof(double)), 0)
        << "value " << value << " did not survive the round trip";
  }
}

TEST(JsonTest, StringEscapes) {
  Json document = Json::Object();
  document.Set("s", Json(std::string("tab\t quote\" back\\ nl\n ctl\x01")));
  const std::string dumped = document.Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("s"), "tab\t quote\" back\\ nl\n ctl\x01");
}

/// Byte-at-a-time JSON string escaping, the reference for JsonEscape.
std::string NaiveEscape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

TEST(JsonTest, EscapesAtEveryOffsetOfAWord) {
  // The codec scans strings several bytes at a time: put each byte that
  // needs escaping at every offset, next to multi-byte UTF-8 and bytes
  // just above the control range, and check both directions.
  const char specials[] = {'"', '\\', '\n', '\x01', '\x1f', '\0'};
  for (const char special : specials) {
    for (size_t offset = 0; offset < 24; ++offset) {
      std::string text(offset, 'a');
      text.push_back(special);
      text += "\xC3\xA9 !\x7f\xff";
      text.push_back(special);
      text += std::string(offset % 9, '~');
      std::string escaped;
      JsonEscape(text, &escaped);
      ASSERT_EQ(escaped, NaiveEscape(text)) << "offset " << offset;
      auto parsed = Json::Parse("\"" + escaped + "\"");
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(parsed->string_value(), text) << "offset " << offset;
      // A raw control byte is rejected wherever it sits.
      if (static_cast<unsigned char>(special) < 0x20) {
        EXPECT_FALSE(Json::Parse("\"" + text + "\"").ok())
            << "offset " << offset;
      }
    }
  }
}

TEST(JsonTest, UnicodeEscapesAndSurrogatePairs) {
  auto parsed = Json::Parse(R"({"s":"\u00e9\u0416\ud83d\ude00"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("s"), "\xC3\xA9\xD0\x96\xF0\x9F\x98\x80");
}

TEST(JsonTest, MalformedDocumentsRejected) {
  const char* bad[] = {
      "",          "{",        "[1,]",     "{\"a\":}",   "tru",
      "01",        "1.",       "\"\\q\"",  "{\"a\" 1}",  "[1] extra",
      "\"\\ud83d\"",  // Lone high surrogate.
      "nan",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, DepthCapRejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, StagedMembersKeepSetSemanticsAcrossNesting) {
  // A repeated key keeps its first position and takes the last value, at
  // every depth, exactly as Json::Set does.
  auto parsed = Json::Parse(
      R"({"a":{"x":1,"y":[1,{"z":2,"z":3}],"x":4},"b":[[],{}],"a":5,)"
      R"("c":[{"k":[{"k":1}]},[[2]]]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(),
            R"({"a":5,"b":[[],{}],"c":[{"k":[{"k":1}]},[[2]]]})");
  auto inner = Json::Parse(R"({"x":1,"y":[1,{"z":2,"z":3}],"x":4})");
  ASSERT_TRUE(inner.ok()) << inner.status();
  EXPECT_EQ(inner->Dump(), R"({"x":4,"y":[1,{"z":3}]})");
}

TEST(JsonTest, FailedParseLeavesNothingStagedForTheNext) {
  // Errors deep inside open objects and arrays must not leak their staged
  // members into the next document parsed on this thread.
  const char* broken[] = {R"({"a":[1,2,{"b":)", R"([{"a":1},{"b":[true,)",
                          R"({"a":{"b":{"c":1,"d":x}}})"};
  for (const char* text : broken) {
    ASSERT_FALSE(Json::Parse(text).ok()) << text;
    auto next = Json::Parse(R"({"c":[3,{"d":4}]})");
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->Dump(), R"({"c":[3,{"d":4}]})") << "after " << text;
  }
}

// ---------------------------------------------------------------------------
// Number codec, differential against the C library. The wire prints every
// double with std::to_chars and reads it with std::from_chars; these pin
// both to the printf("%.17g") / strtod behaviour the protocol was defined
// with, so no recorded frame and no decoded score can drift.

/// What the wire has always carried for `value`: printf's %.17g, and null
/// for the values JSON cannot spell. Integral values print the same under
/// %.17g as under %lld, so this also pins the integer path.
std::string PrintfNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t DoubleToBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(JsonNumberTest, PrintsLikePrintfOnEdgeCases) {
  const double two53 = 9007199254740992.0;
  const double two63 = 9223372036854775808.0;
  const double values[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 / 3.0, 0.25, 42.0, -42.0,
      // Subnormals and the ends of the range.
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      // Around the integer path's 2^53 cutover.
      two53 - 1, two53, two53 + 2, -(two53 - 1), -two53,
      std::nextafter(two53 - 1, 0.0), std::nextafter(two53, 0.0),
      1e15, 1e16, 1e17, 123456789012345678.0,
      // Around the int64 range's ends.
      two63, -two63, std::nextafter(two63, 0.0), std::nextafter(-two63, 0.0),
      std::nextafter(two63, HUGE_VAL), 1e19, -1e19,
      // Exponent-form switch points of %g.
      1e-4, 1e-5, 9.9999999999999995e-5, 1e-300, 5e-324,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double value : values) {
    EXPECT_EQ(JsonNumberToString(value), PrintfNumber(value))
        << "bits 0x" << std::hex << DoubleToBits(value);
  }
}

TEST(JsonNumberTest, PrintsLikePrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20161017);
  std::string out;
  size_t mismatches = 0;
  constexpr int kPatterns = 1 << 20;
  for (int i = 0; i < kPatterns; ++i) {
    const double value = BitsToDouble(rng());
    out.clear();
    AppendJsonNumber(value, &out);
    if (out != PrintfNumber(value) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << DoubleToBits(value)
                    << ": wire '" << out << "' vs %.17g '"
                    << PrintfNumber(value) << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kPatterns << " patterns";
}

TEST(JsonNumberTest, IntegralValuesPrintLikePrintf) {
  // Random integral doubles on both sides of 2^53, where the integer path
  // hands over to the general one.
  std::mt19937_64 rng(53);
  for (int i = 0; i < 200000; ++i) {
    const int shift = static_cast<int>(rng() % 64);
    const double value =
        static_cast<double>(rng() >> shift) * ((rng() & 1) ? 1.0 : -1.0);
    ASSERT_EQ(JsonNumberToString(value), PrintfNumber(value))
        << "bits 0x" << std::hex << DoubleToBits(value);
  }
}

/// Parses `literal` as a one-number JSON document.
double ParseWireNumber(const std::string& literal) {
  auto parsed = Json::Parse(literal);
  EXPECT_TRUE(parsed.ok()) << literal << ": " << parsed.status();
  EXPECT_TRUE(parsed.ok() && parsed->is_number()) << literal;
  return parsed.ok() ? parsed->number_value() : std::nan("");
}

TEST(JsonNumberTest, ParsesLikeStrtodOnEdgeCases) {
  const char* literals[] = {
      // Overflow to +-inf and total underflow to a signed zero: from_chars
      // reports out_of_range on these and leaves its output alone.
      "1e400", "-1e400", "1e-400", "-1e-400", "1e999999", "-1e-999999",
      "1.7976931348623159e308", "-1.7976931348623159e308",
      "2.4703282292062327e-324", "-2.4703282292062327e-324",
      // Subnormals that do not underflow.
      "4.9e-324", "2.4703282292062328e-324", "-4.9e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "0", "-0", "0.0", "-0.0", "0e10", "-0E-10", "9007199254740993",
      "9223372036854775807", "-9223372036854775808",
      "0.1000000000000000055511151231257827021181583404541015625",
      "123456789012345678901234567890e-30", "1E+2", "1e-2"};
  for (const char* literal : literals) {
    const double expected = std::strtod(literal, nullptr);
    EXPECT_EQ(DoubleToBits(ParseWireNumber(literal)), DoubleToBits(expected))
        << literal;
  }
  // The sign of an underflowed zero survives.
  EXPECT_TRUE(std::signbit(ParseWireNumber("-1e-400")));
  EXPECT_TRUE(std::isinf(ParseWireNumber("1e400")));
}

TEST(JsonNumberTest, ParsesLikeStrtodOnRandomLiterals) {
  std::mt19937_64 rng(1324);
  auto digits = [&rng](size_t n, bool nonzero_first) {
    std::string text;
    for (size_t i = 0; i < n; ++i) {
      const int low = (i == 0 && nonzero_first) ? 1 : 0;
      text.push_back(static_cast<char>('0' + low + rng() % (10 - low)));
    }
    return text;
  };
  size_t mismatches = 0;
  constexpr int kLiterals = 200000;
  for (int i = 0; i < kLiterals; ++i) {
    std::string literal;
    if (i % 2 == 0) {
      // Random JSON grammar: sign, integer part, fraction, exponent.
      if (rng() & 1) literal.push_back('-');
      literal += (rng() % 8 == 0) ? std::string("0")
                                  : digits(1 + rng() % 20, true);
      if (rng() & 1) {
        literal.push_back('.');
        literal += digits(1 + rng() % 25, false);
      }
      if (rng() & 1) {
        literal.push_back((rng() & 1) ? 'e' : 'E');
        const int sign = static_cast<int>(rng() % 3);
        if (sign == 1) literal.push_back('+');
        if (sign == 2) literal.push_back('-');
        literal += std::to_string(rng() % 420);
      }
    } else {
      // A random finite double as the wire prints it.
      double value;
      do {
        value = BitsToDouble(rng());
      } while (!std::isfinite(value));
      literal = PrintfNumber(value);
    }
    const double expected = std::strtod(literal.c_str(), nullptr);
    const double got = ParseWireNumber(literal);
    if (DoubleToBits(got) != DoubleToBits(expected) && ++mismatches <= 5) {
      ADD_FAILURE() << literal << ": parsed 0x" << std::hex
                    << DoubleToBits(got) << " vs strtod 0x"
                    << DoubleToBits(expected);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kLiterals << " literals";
}

// ---------------------------------------------------------------------------
// Framing

TEST(FramingTest, EncodeDecodeRoundTrip) {
  std::string wire;
  AppendFrame("hello", &wire);
  EXPECT_EQ(wire.size(), kLengthPrefixBytes + 5);
  FrameDecode decode = DecodeFrame(wire);
  ASSERT_EQ(decode.state, FrameDecode::State::kFrame);
  EXPECT_EQ(decode.payload, "hello");
  EXPECT_EQ(decode.consumed, wire.size());
}

TEST(FramingTest, TornFramesNeedMoreAtEveryPrefixLength) {
  std::string wire;
  AppendFrame(R"({"id":1,"method":"Health","params":{}})", &wire);
  // Every strict prefix — inside the length word or inside the payload —
  // must report kNeedMore, never a frame and never an error.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecode decode = DecodeFrame(std::string_view(wire).substr(0, cut));
    EXPECT_EQ(decode.state, FrameDecode::State::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FramingTest, OversizedPrefixRejectedBeforePayloadArrives) {
  // A hostile 512 MiB length announcement must be rejected from the four
  // prefix bytes alone.
  const std::string wire = {'\x20', '\x00', '\x00', '\x00'};
  FrameDecode decode = DecodeFrame(wire, kDefaultMaxFrameBytes);
  ASSERT_EQ(decode.state, FrameDecode::State::kError);
  EXPECT_NE(decode.error.find("exceeds"), std::string::npos);
}

TEST(FramingTest, ZeroLengthFrameIsError) {
  const std::string wire(kLengthPrefixBytes, '\0');
  EXPECT_EQ(DecodeFrame(wire).state, FrameDecode::State::kError);
}

TEST(FramingTest, PipelinedFramesDecodeInOrder) {
  std::string wire;
  AppendFrame("one", &wire);
  AppendFrame("two", &wire);
  AppendFrame("three", &wire);
  std::vector<std::string> got;
  std::string_view rest = wire;
  for (;;) {
    FrameDecode decode = DecodeFrame(rest);
    if (decode.state != FrameDecode::State::kFrame) break;
    got.emplace_back(decode.payload);
    rest.remove_prefix(decode.consumed);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_TRUE(rest.empty());
}

TEST(FramingTest, InterleavedPartialDelivery) {
  // Two pipelined requests delivered in awkward chunks: a decoder driven
  // chunk-by-chunk must produce exactly the two payloads.
  std::string wire;
  AppendFrame("alpha", &wire);
  AppendFrame("bravo", &wire);
  for (size_t chunk = 1; chunk <= wire.size(); ++chunk) {
    std::string buffer;
    std::vector<std::string> got;
    for (size_t off = 0; off < wire.size(); off += chunk) {
      buffer += wire.substr(off, chunk);
      for (;;) {
        FrameDecode decode = DecodeFrame(buffer);
        if (decode.state != FrameDecode::State::kFrame) {
          ASSERT_EQ(decode.state, FrameDecode::State::kNeedMore);
          break;
        }
        got.emplace_back(decode.payload);
        buffer.erase(0, decode.consumed);
      }
    }
    EXPECT_EQ(got, (std::vector<std::string>{"alpha", "bravo"}))
        << "chunk size " << chunk;
  }
}

// ---------------------------------------------------------------------------
// Request/response payloads

TEST(RequestTest, ParseFullRequest) {
  auto request = ParseRequest(
      R"({"id":7,"method":"Recommend","deadline_ms":250,)"
      R"("params":{"part_id":"P01"}})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->id, 7);
  EXPECT_EQ(request->method, Method::kRecommend);
  EXPECT_EQ(request->deadline_ms, 250);
  EXPECT_EQ(request->params.GetString("part_id"), "P01");
}

TEST(RequestTest, UnknownMethodIsCarriedNotRejected) {
  auto request = ParseRequest(R"({"id":1,"method":"Frobnicate"})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, Method::kUnknown);
  EXPECT_EQ(request->method_name, "Frobnicate");
}

TEST(RequestTest, MissingMethodRejected) {
  EXPECT_FALSE(ParseRequest(R"({"id":1})").ok());
  EXPECT_FALSE(ParseRequest(R"({"id":1,"method":5})").ok());
  EXPECT_FALSE(ParseRequest(R"([1,2,3])").ok());
  EXPECT_FALSE(ParseRequest("not json").ok());
}

/// Frames `payload`, then decodes and parses it as the server does.
Result<Request> ParseFramedRequest(const std::string& payload) {
  std::string wire;
  AppendFrame(payload, &wire);
  const FrameDecode decode = DecodeFrame(wire);
  EXPECT_EQ(decode.state, FrameDecode::State::kFrame);
  return ParseRequest(decode.payload);
}

TEST(RequestTest, HostileNumbersReadAsAbsent) {
  // Ids, deadlines and ordinals that no int64 can hold (or that parse to
  // +-inf) read as the field's fallback. Casting them would be undefined
  // behaviour; on x86 it yields INT64_MIN.
  const char* huge[] = {"1e300", "-1e300", "1e400", "-1e400",
                        "9223372036854775808", "9223372036854775807",
                        "-9223372036854777856"};
  for (const char* number : huge) {
    auto request = ParseFramedRequest(
        std::string(R"({"id":)") + number +
        R"(,"method":"ConfirmAssignment","deadline_ms":)" + number +
        R"(,"params":{"ordinal":)" + number + "}}");
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->id, 0) << number;
    EXPECT_EQ(request->deadline_ms, -1) << number;
    EXPECT_EQ(request->params.GetInt("ordinal", -1), -1) << number;
  }
  // The ends of the range that do fit still read as numbers.
  auto edge = ParseFramedRequest(
      R"({"id":-9223372036854775808,"method":"Health",)"
      R"("deadline_ms":9223372036854774784,"params":{"ordinal":-0.5}})");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->id, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(edge->deadline_ms, 9223372036854774784);
  EXPECT_EQ(edge->params.GetInt("ordinal", -1), 0);
}

TEST(RequestTest, EncodeParsesBack) {
  Json params = Json::Object();
  params.Set("part_id", Json("P03"));
  const std::string payload = EncodeRequest(42, "RecommendForText", params,
                                            /*deadline_ms=*/100);
  auto request = ParseRequest(payload);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->id, 42);
  EXPECT_EQ(request->method, Method::kRecommendForText);
  EXPECT_EQ(request->deadline_ms, 100);
  EXPECT_EQ(request->params.GetString("part_id"), "P03");
}

TEST(ResponseTest, EncodeParseRoundTrip) {
  Json result = Json::Object();
  result.Set("answer", Json(static_cast<int64_t>(42)));
  auto response = ParseResponse(EncodeResponse(9, Status::OK(), result));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, 9);
  EXPECT_TRUE(response->ok());
  EXPECT_EQ(response->result.GetInt("answer", 0), 42);
}

TEST(ResponseTest, ErrorCodesSurviveTheWire) {
  const Status statuses[] = {
      Status::Unavailable("shed"),
      Status::DeadlineExceeded("late"),
      Status::Invalid("bad"),
      Status::KeyError("missing"),
  };
  for (const Status& status : statuses) {
    auto response = ParseResponse(EncodeResponse(1, status, Json()));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, status.code());
    EXPECT_EQ(response->message, status.message());
    EXPECT_FALSE(response->ok());
  }
}

TEST(ResponseTest, UnknownCodeNameMapsToInternal) {
  auto response = ParseResponse(
      R"({"id":1,"code":"FutureCode","message":"?","result":null})");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kInternal);
}

TEST(MethodNamesTest, RoundTripAllMethods) {
  const Method methods[] = {
      Method::kRecommend,      Method::kRecommendForText,
      Method::kFullListForPart, Method::kDescribeCode,
      Method::kConfirmAssignment, Method::kDefineErrorCode,
      Method::kHealth,         Method::kStats,
      Method::kMetricsText,    Method::kShardQuery,
      Method::kShardTopK,
  };
  static_assert(kNumMethods == sizeof(methods) / sizeof(methods[0]) + 1,
                "new Method added: extend this test and the golden frames");
  for (const Method method : methods) {
    EXPECT_EQ(MethodFromString(MethodToString(method)), method);
  }
  EXPECT_EQ(MethodFromString("NoSuchMethod"), Method::kUnknown);
}

// ---------------------------------------------------------------------------
// Golden wire frames
//
// The exact framed bytes (4-byte big-endian length prefix + JSON payload)
// of one request per method and of representative responses, recorded
// from the encoders and checked in. These are the protocol's compatibility
// contract: if any of them changes, an old client on the wire breaks, so
// the change must be deliberate — regenerate the constants and say so in
// the commit. The prefixes contain NUL bytes: always slice with
// sizeof - 1, never strlen.

constexpr char kGoldenUnknownRequest[] =
    "\x00" "\x00" "\x00" "*{\"id\":1,\"method\":\"Frobnicate\","
    "\"params\":{}}";
constexpr char kGoldenRecommendRequest[] =
    "\x00" "\x00" "\x00" "b{\"id\":2,\"method\":\"Recommend\",\""
    "params\":{\"part_id\":\"P01\",\"mechanic_report\":\"engine st"
    "alls at idle\"}}";
constexpr char kGoldenRecommendForTextRequest[] =
    "\x00" "\x00" "\x00" "k{\"id\":3,\"method\":\"RecommendForT"
    "ext\",\"deadline_ms\":250,\"params\":{\"part_id\":\"P02\",\"t"
    "ext\":\"fuel pump whines\"}}";
constexpr char kGoldenFullListRequest[] =
    "\x00" "\x00" "\x00" ">{\"id\":4,\"method\":\"FullListForPa"
    "rt\",\"params\":{\"part_id\":\"P01\"}}";
constexpr char kGoldenDescribeRequest[] =
    "\x00" "\x00" "\x00" "9{\"id\":5,\"method\":\"DescribeCode\""
    ",\"params\":{\"code\":\"E042\"}}";
constexpr char kGoldenConfirmRequest[] =
    "\x00" "\x00" "\x00" "~{\"id\":6,\"method\":\"ConfirmAssign"
    "ment\",\"params\":{\"part_id\":\"P01\",\"mechanic_report\":\""
    "engine stalls at idle\",\"error_code\":\"E042\"}}";
constexpr char kGoldenDefineRequest[] =
    "\x00" "\x00" "\x00" "l{\"id\":7,\"method\":\"DefineErrorCo"
    "de\",\"params\":{\"part_id\":\"P03\",\"code\":\"E900\",\"desc"
    "ription\":\"cracked housing\"}}";
constexpr char kGoldenHealthRequest[] =
    "\x00" "\x00" "\x00" "&{\"id\":8,\"method\":\"Health\",\"pa"
    "rams\":{}}";
constexpr char kGoldenStatsRequest[] =
    "\x00" "\x00" "\x00" "%{\"id\":9,\"method\":\"Stats\",\"par"
    "ams\":{}}";
constexpr char kGoldenMetricsTextRequest[] =
    "\x00" "\x00" "\x00" "?{\"id\":10,\"method\":\"MetricsText\""
    ",\"deadline_ms\":1000,\"params\":{}}";
constexpr char kGoldenShardQueryRequest[] =
    "\x00" "\x00" "\x00" "u{\"id\":11,\"method\":\"ShardQuery\","
    "\"params\":{\"part_id\":\"P01\",\"mechanic_report\":\"engine "
    "stalls at idle\",\"fallback\":false}}";
constexpr char kGoldenShardTopKRequest[] =
    "\x00" "\x00" "\x00" "c{\"id\":12,\"method\":\"ShardTopK\",\""
    "params\":{\"part_id\":\"P02\",\"text\":\"fuel pump whines\",\""
    "fallback\":true}}";
constexpr char kGoldenOkResponse[] =
    "\x00" "\x00" "\x00" "c{\"id\":2,\"code\":\"OK\",\"message\""
    ":\"\",\"result\":{\"top\":[{\"code\":\"E042\",\"score\":0.25}"
    "],\"truncated\":false}}";
constexpr char kGoldenHealthResponse[] =
    "\x00" "\x00" "\x00" ":{\"id\":8,\"code\":\"OK\",\"message\""
    ":\"\",\"result\":{\"status\":\"ok\"}}";
constexpr char kGoldenShedResponse[] =
    "\x00" "\x00" "\x00" "a{\"id\":3,\"code\":\"Unavailable\",\""
    "message\":\"server over capacity (max_in_flight=1024)\",\"res"
    "ult\":null}";
constexpr char kGoldenDeadlineResponse[] =
    "\x00" "\x00" "\x00" "^{\"id\":4,\"code\":\"DeadlineExceede"
    "d\",\"message\":\"deadline expired before execution\",\"resul"
    "t\":null}";
constexpr char kGoldenInvalidResponse[] =
    "\x00" "\x00" "\x00" "O{\"id\":1,\"code\":\"Invalid\",\"mes"
    "sage\":\"unknown method 'Frobnicate'\",\"result\":null}";
constexpr char kGoldenShardPartialResponse[] =
    "\x00" "\x00" "\x00" "~{\"id\":11,\"code\":\"OK\",\"message"
    "\":\"\",\"result\":{\"known\":true,\"fallback\":false,\"items"
    "\":[{\"code\":\"E042\",\"score\":0.25,\"ordinal\":7}]}}";

template <size_t N>
std::string_view GoldenBytes(const char (&literal)[N]) {
  return std::string_view(literal, N - 1);
}

std::string Framed(const std::string& payload) {
  std::string frame;
  AppendFrame(payload, &frame);
  return frame;
}

TEST(GoldenFrameTest, RequestEncodersReproduceRecordedFramesBitExact) {
  Json recommend = Json::Object();
  recommend.Set("part_id", Json("P01"));
  recommend.Set("mechanic_report", Json("engine stalls at idle"));
  Json for_text = Json::Object();
  for_text.Set("part_id", Json("P02"));
  for_text.Set("text", Json("fuel pump whines"));
  Json full_list = Json::Object();
  full_list.Set("part_id", Json("P01"));
  Json describe = Json::Object();
  describe.Set("code", Json("E042"));
  Json confirm = Json::Object();
  confirm.Set("part_id", Json("P01"));
  confirm.Set("mechanic_report", Json("engine stalls at idle"));
  confirm.Set("error_code", Json("E042"));
  Json define = Json::Object();
  define.Set("part_id", Json("P03"));
  define.Set("code", Json("E900"));
  define.Set("description", Json("cracked housing"));
  // Shard probes: the public params plus the routing round's "fallback"
  // flag, exactly as the coordinator builds them.
  Json shard_query = Json::Object();
  shard_query.Set("part_id", Json("P01"));
  shard_query.Set("mechanic_report", Json("engine stalls at idle"));
  shard_query.Set("fallback", Json(false));
  Json shard_topk = Json::Object();
  shard_topk.Set("part_id", Json("P02"));
  shard_topk.Set("text", Json("fuel pump whines"));
  shard_topk.Set("fallback", Json(true));

  EXPECT_EQ(Framed(EncodeRequest(1, "Frobnicate", Json::Object())),
            GoldenBytes(kGoldenUnknownRequest));
  EXPECT_EQ(Framed(EncodeRequest(2, "Recommend", recommend)),
            GoldenBytes(kGoldenRecommendRequest));
  EXPECT_EQ(Framed(EncodeRequest(3, "RecommendForText", for_text, 250)),
            GoldenBytes(kGoldenRecommendForTextRequest));
  EXPECT_EQ(Framed(EncodeRequest(4, "FullListForPart", full_list)),
            GoldenBytes(kGoldenFullListRequest));
  EXPECT_EQ(Framed(EncodeRequest(5, "DescribeCode", describe)),
            GoldenBytes(kGoldenDescribeRequest));
  EXPECT_EQ(Framed(EncodeRequest(6, "ConfirmAssignment", confirm)),
            GoldenBytes(kGoldenConfirmRequest));
  EXPECT_EQ(Framed(EncodeRequest(7, "DefineErrorCode", define)),
            GoldenBytes(kGoldenDefineRequest));
  EXPECT_EQ(Framed(EncodeRequest(8, "Health", Json::Object())),
            GoldenBytes(kGoldenHealthRequest));
  EXPECT_EQ(Framed(EncodeRequest(9, "Stats", Json::Object())),
            GoldenBytes(kGoldenStatsRequest));
  EXPECT_EQ(Framed(EncodeRequest(10, "MetricsText", Json::Object(), 1000)),
            GoldenBytes(kGoldenMetricsTextRequest));
  EXPECT_EQ(Framed(EncodeRequest(11, "ShardQuery", shard_query)),
            GoldenBytes(kGoldenShardQueryRequest));
  EXPECT_EQ(Framed(EncodeRequest(12, "ShardTopK", shard_topk)),
            GoldenBytes(kGoldenShardTopKRequest));
}

TEST(GoldenFrameTest, RecordedRequestFramesDecodeToTheRightMethods) {
  const struct {
    std::string_view frame;
    int64_t id;
    Method method;
    int64_t deadline_ms;
  } cases[] = {
      {GoldenBytes(kGoldenUnknownRequest), 1, Method::kUnknown, -1},
      {GoldenBytes(kGoldenRecommendRequest), 2, Method::kRecommend, -1},
      {GoldenBytes(kGoldenRecommendForTextRequest), 3,
       Method::kRecommendForText, 250},
      {GoldenBytes(kGoldenFullListRequest), 4, Method::kFullListForPart, -1},
      {GoldenBytes(kGoldenDescribeRequest), 5, Method::kDescribeCode, -1},
      {GoldenBytes(kGoldenConfirmRequest), 6, Method::kConfirmAssignment,
       -1},
      {GoldenBytes(kGoldenDefineRequest), 7, Method::kDefineErrorCode, -1},
      {GoldenBytes(kGoldenHealthRequest), 8, Method::kHealth, -1},
      {GoldenBytes(kGoldenStatsRequest), 9, Method::kStats, -1},
      {GoldenBytes(kGoldenMetricsTextRequest), 10, Method::kMetricsText,
       1000},
      {GoldenBytes(kGoldenShardQueryRequest), 11, Method::kShardQuery, -1},
      {GoldenBytes(kGoldenShardTopKRequest), 12, Method::kShardTopK, -1},
  };
  // One golden frame per Method value, by construction.
  ASSERT_EQ(sizeof(cases) / sizeof(cases[0]), kNumMethods);
  for (const auto& c : cases) {
    const FrameDecode decode = DecodeFrame(c.frame);
    ASSERT_EQ(decode.state, FrameDecode::State::kFrame);
    EXPECT_EQ(decode.consumed, c.frame.size());
    auto request = ParseRequest(decode.payload);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->id, c.id);
    EXPECT_EQ(request->method, c.method);
    EXPECT_EQ(request->deadline_ms, c.deadline_ms);
  }
}

TEST(GoldenFrameTest, ResponseEncodersReproduceRecordedFramesBitExact) {
  Json ok_result = Json::Object();
  ok_result.Set("status", Json("ok"));
  Json scored = Json::Object();
  Json top = Json::Array();
  Json entry = Json::Object();
  entry.Set("code", Json("E042"));
  entry.Set("score", Json(0.25));
  top.Append(entry);
  scored.Set("top", top);
  scored.Set("truncated", Json(false));

  EXPECT_EQ(Framed(EncodeResponse(2, Status::OK(), scored)),
            GoldenBytes(kGoldenOkResponse));
  EXPECT_EQ(Framed(EncodeResponse(8, Status::OK(), ok_result)),
            GoldenBytes(kGoldenHealthResponse));
  EXPECT_EQ(Framed(EncodeResponse(
                3,
                Status::Unavailable(
                    "server over capacity (max_in_flight=1024)"),
                Json())),
            GoldenBytes(kGoldenShedResponse));
  EXPECT_EQ(Framed(EncodeResponse(
                4,
                Status::DeadlineExceeded(
                    "deadline expired before execution"),
                Json())),
            GoldenBytes(kGoldenDeadlineResponse));
  EXPECT_EQ(Framed(EncodeResponse(
                1, Status::Invalid("unknown method 'Frobnicate'"), Json())),
            GoldenBytes(kGoldenInvalidResponse));

  // The shard partial travels through ShardPartialToJson: member order
  // and the 17-digit score formatting are part of the wire contract (the
  // coordinator merges the parsed-back doubles bit-for-bit).
  quest::RecommendationService::ShardPartial partial;
  partial.known_part = true;
  partial.fallback = false;
  partial.items.push_back({"E042", 0.25, 7});
  EXPECT_EQ(Framed(EncodeResponse(11, Status::OK(),
                                  ShardPartialToJson(partial))),
            GoldenBytes(kGoldenShardPartialResponse));
}

TEST(GoldenFrameTest, ShardPartialRoundTripsThroughTheWire) {
  quest::RecommendationService::ShardPartial partial;
  partial.known_part = true;
  partial.fallback = true;
  partial.items.push_back({"E042", 1.0 / 3.0, 12345678901ull});
  partial.items.push_back({"E007", 0.0, 0});
  const std::string payload =
      EncodeResponse(1, Status::OK(), ShardPartialToJson(partial));
  auto response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status();
  auto back = ShardPartialFromJson(response->result);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->known_part, partial.known_part);
  EXPECT_EQ(back->fallback, partial.fallback);
  ASSERT_EQ(back->items.size(), partial.items.size());
  for (size_t i = 0; i < partial.items.size(); ++i) {
    EXPECT_EQ(back->items[i].error_code, partial.items[i].error_code);
    // Bit-identical doubles: the merge compares these.
    EXPECT_EQ(std::memcmp(&back->items[i].score, &partial.items[i].score,
                          sizeof(double)),
              0);
    EXPECT_EQ(back->items[i].ordinal, partial.items[i].ordinal);
  }
  EXPECT_FALSE(
      ShardPartialFromJson(Json("not an object")).ok());
}

TEST(GoldenFrameTest, RecordedResponseFramesParseBack) {
  const struct {
    std::string_view frame;
    int64_t id;
    StatusCode code;
  } cases[] = {
      {GoldenBytes(kGoldenOkResponse), 2, StatusCode::kOk},
      {GoldenBytes(kGoldenHealthResponse), 8, StatusCode::kOk},
      {GoldenBytes(kGoldenShedResponse), 3, StatusCode::kUnavailable},
      {GoldenBytes(kGoldenDeadlineResponse), 4,
       StatusCode::kDeadlineExceeded},
      {GoldenBytes(kGoldenInvalidResponse), 1, StatusCode::kInvalid},
      {GoldenBytes(kGoldenShardPartialResponse), 11, StatusCode::kOk},
  };
  for (const auto& c : cases) {
    const FrameDecode decode = DecodeFrame(c.frame);
    ASSERT_EQ(decode.state, FrameDecode::State::kFrame);
    auto response = ParseResponse(decode.payload);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, c.id);
    EXPECT_EQ(response->code, c.code);
  }
}

TEST(GoldenFrameTest, DirectRecommendEncoderMatchesTreeEncoder) {
  using Recommendation = quest::RecommendationService::Recommendation;
  // The recorded OK frame, written by the direct encoder.
  Recommendation golden;
  golden.top.push_back({"E042", 0.25});
  std::string payload;
  EncodeRecommendResponseTo(2, golden, &payload);
  EXPECT_EQ(Framed(payload), GoldenBytes(kGoldenOkResponse));

  Recommendation empty;
  Recommendation truncated;
  truncated.truncated = true;
  truncated.top.push_back({"E7", 1.0 / 3.0});
  truncated.top.push_back({"E8", 0.0});
  truncated.top.push_back({"E9", 1e-300});
  Recommendation escaped;
  escaped.top.push_back({"E\"1\\2\n\x01/\xc3\xa4", -0.0});
  escaped.top.push_back({"", 1.0});
  for (const Recommendation* recommendation :
       {&golden, &empty, &truncated, &escaped}) {
    for (const int64_t id : {int64_t{0}, int64_t{-7}, int64_t{1} << 53}) {
      std::string direct = "prefix";
      EncodeRecommendResponseTo(id, *recommendation, &direct);
      std::string tree = "prefix";
      EncodeResponseTo(id, Status::OK(), RecommendationToJson(*recommendation),
                       &tree);
      EXPECT_EQ(direct, tree);
    }
  }
}

// ---------------------------------------------------------------------------
// The direct request decoder against ParseRequest + BundleFromParams

/// Decodes `payload` both ways into the caller's reused `request` and
/// `bundle`: the same id, method and deadline and the same bundle, or
/// the same error text.
void ExpectDecodersAgree(std::string_view payload, Request* request,
                         kb::DataBundle* bundle) {
  const Status status = DecodeRequestInto(payload, request, bundle);
  const Result<Request> reference = ParseRequest(payload);
  ASSERT_EQ(status.ok(), reference.ok())
      << payload << "\n direct: " << status
      << "\n tree: " << reference.status();
  if (!status.ok()) {
    EXPECT_EQ(status.ToString(), reference.status().ToString()) << payload;
    return;
  }
  EXPECT_EQ(request->id, reference->id) << payload;
  EXPECT_EQ(request->method, reference->method) << payload;
  EXPECT_EQ(request->method_name, reference->method_name) << payload;
  EXPECT_EQ(request->deadline_ms, reference->deadline_ms) << payload;
  EXPECT_EQ(BundleToParams(*bundle).Dump(),
            BundleToParams(BundleFromParams(reference->params)).Dump())
      << payload;
}

TEST(DirectDecodeTest, GoldenRequestFramesDecodeAlike) {
  Request request;
  kb::DataBundle bundle;
  for (const std::string_view frame :
       {GoldenBytes(kGoldenUnknownRequest), GoldenBytes(kGoldenRecommendRequest),
        GoldenBytes(kGoldenRecommendForTextRequest),
        GoldenBytes(kGoldenFullListRequest), GoldenBytes(kGoldenDescribeRequest),
        GoldenBytes(kGoldenConfirmRequest), GoldenBytes(kGoldenDefineRequest),
        GoldenBytes(kGoldenHealthRequest), GoldenBytes(kGoldenStatsRequest),
        GoldenBytes(kGoldenMetricsTextRequest),
        GoldenBytes(kGoldenShardQueryRequest),
        GoldenBytes(kGoldenShardTopKRequest)}) {
    const FrameDecode decode = DecodeFrame(frame);
    ASSERT_EQ(decode.state, FrameDecode::State::kFrame);
    ExpectDecodersAgree(decode.payload, &request, &bundle);
  }
}

TEST(DirectDecodeTest, HandCasesDecodeAlike) {
  const std::string deep_ok =
      std::string(R"({"method":"Recommend","params":{"x":)") +
      std::string(63, '[') + std::string(63, ']') + "}}";
  const std::string deep_cap =
      std::string(R"({"method":"Recommend","params":{"x":)") +
      std::string(65, '[') + std::string(65, ']') + "}}";
  const std::vector<std::string> cases = {
      // Duplicate keys: the last value wins, in params and in the envelope.
      R"({"id":1,"method":"Recommend","params":{"part_id":"A","part_id":"B"}})",
      R"({"id":1,"id":2,"method":"Recommend","params":{}})",
      R"({"id":1,"method":"Recommend","id":"x","params":{}})",
      R"({"method":"Health","method":"Recommend","params":{}})",
      R"({"method":"Recommend","method":7,"params":{}})",
      R"({"method":"Recommend","params":{"part_id":"A"},"params":{"mechanic_report":"m"}})",
      R"({"method":"Recommend","params":{"part_id":"A"},"params":[1]})",
      R"({"method":"Recommend","deadline_ms":5,"deadline_ms":null})",
      // A non-string field value reads as "".
      R"({"method":"Recommend","params":{"part_id":5,"mechanic_report":{"a":[1,"b"]}}})",
      R"({"method":"Recommend","params":{"part_id":"A","part_id":null,"supplier_report":true}})",
      // params before method, params not an object.
      R"({"params":{"part_id":"P01","mechanic_report":"x"},"id":3,"method":"Recommend"})",
      R"({"id":1,"method":"Recommend","params":[1,2]})",
      R"({"id":1,"method":"Recommend","params":"P01"})",
      R"({"id":1,"method":"Recommend","params":null})",
      R"({"id":1,"method":"Recommend"})",
      // Escapes and surrogate pairs, in keys, values and the method name.
      R"({"id":1,"method":"Recommend","params":{"part_id":"Pä01","mechanic_report":"😀 \"q\" \\ \/ \b\f\n\r\t"}})",
      R"({"id":1,"method":"Recommend","params":{"part_id":"\ud800"}})",
      R"({"id":1,"method":"Recommend","params":{"part_id":"\udc00"}})",
      R"({"id":1,"method":"Recommend","params":{"part_id":"\ud800A"}})",
      R"({"id":1,"method":"Recommend","params":{"part_id":"\u12g4"}})",
      R"({"id":1,"method":"Recommend","params":{"part_id":"\q"}})",
      "{\"id\":1,\"method\":\"Recommend\",\"params\":{\"part_id\":\"a\x01\"}}",
      // Nesting inside params, below and beyond the depth cap.
      deep_ok,
      deep_cap,
      // Trailing bytes, whitespace, non-object documents, no method.
      R"({"id":1,"method":"Recommend","params":{}} x)",
      R"({"id":1,"method":"Recommend","params":{}}})",
      " \t\r\n{ \"id\" : 1 , \"method\" : \"Recommend\" , \"params\" : { } } \n",
      R"([1,2])", R"("Recommend")", "5", "", "   ", "nul", "{",
      R"({"id":1})", R"({"id":1,"method":null})",
      // Numbers: GetInt's truncation and range rules, and the grammar.
      R"({"id":1e300,"method":"Recommend"})",
      R"({"id":-1e300,"method":"Recommend"})",
      R"({"id":1e400,"method":"Recommend","deadline_ms":-1e400})",
      R"({"id":-2.9,"method":"Recommend","deadline_ms":7.9})",
      R"({"id":9223372036854775807,"method":"Recommend"})",
      R"({"id":-9223372036854775808,"method":"Recommend"})",
      R"({"id":"5","method":"Recommend","deadline_ms":[1]})",
      R"({"id":01,"method":"Recommend"})",
      R"({"id":1.,"method":"Recommend"})",
      R"({"id":1e,"method":"Recommend"})",
      R"({"id":-,"method":"Recommend"})",
      R"({"id":tru,"method":"Recommend"})",
      R"({"id":1,"method":"Recommend",})",
      R"({"id":1 "method":"Recommend"})",
      R"({"id" 1,"method":"Recommend"})",
      R"({id:1,"method":"Recommend"})",
      R"({"id":1,"method":"Recommend","params":{"x":[1 2]}})",
  };
  Request request;
  kb::DataBundle bundle;
  for (const std::string& payload : cases) {
    ExpectDecodersAgree(payload, &request, &bundle);
  }
}

TEST(DirectDecodeTest, MutatedRecommendFramesDecodeAlike) {
  // Seeded byte mutations of Recommend payloads, biased toward the bytes
  // the grammar branches on.
  kb::DataBundle seed_bundle;
  seed_bundle.reference_number = "R-000123456789";
  seed_bundle.article_code = "A17";
  seed_bundle.part_id = "P01";
  seed_bundle.mechanic_report = "Motor stottert \xc3\xa4 \"laut\"\n\tbei 1e3 U/min";
  seed_bundle.initial_oem_report = "engine stalls at idle";
  seed_bundle.supplier_report = "kein Fehler gefunden \\ NTF";
  const std::vector<std::string> seeds = {
      EncodeRequest(42, "Recommend", BundleToParams(seed_bundle), 250),
      std::string(DecodeFrame(GoldenBytes(kGoldenRecommendRequest)).payload),
      R"({"params":{"part_id":"P02","mechanic_report":"ä😀"},"id":-3.5,"method":"Recommend","extra":[{"a":null},true,false,1e-7]})",
  };
  static constexpr char kInteresting[] = "{}[]\":,\\u0123456789.eE+-tfn \x01";
  std::mt19937_64 rng(20161);
  Request request;
  kb::DataBundle bundle;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string payload = seeds[rng() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits && !payload.empty(); ++e) {
      const size_t at = rng() % payload.size();
      const char byte = rng() % 4 == 0
                            ? static_cast<char>(rng() % 256)
                            : kInteresting[rng() % (sizeof(kInteresting) - 1)];
      switch (rng() % 4) {
        case 0: payload[at] = byte; break;
        case 1: payload.insert(payload.begin() + at, byte); break;
        case 2: payload.erase(at, 1); break;
        default: payload.resize(at); break;
      }
    }
    ExpectDecodersAgree(payload, &request, &bundle);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Prometheus text rendering

TEST(PrometheusTextTest, RendersAllKindsWithLabelSplicing) {
#ifdef QATK_NO_METRICS
  GTEST_SKIP() << "metrics compiled out (QATK_NO_METRICS)";
#else
  obs::Registry registry;
  registry.GetCounter("test_requests_total{method=\"Recommend\"}")->Add(7);
  registry.GetCounter("test_requests_total{method=\"Stats\"}")->Add(2);
  registry.GetGauge("test_nodes")->Set(-3);
  obs::Histogram* histogram = registry.GetHistogram(
      "test_latency_us{method=\"Recommend\"}");
  histogram->Record(0);
  histogram->Record(5);
  histogram->Record(obs::kHistogramOverflow + 1);
  const std::string text = RenderPrometheusText(registry.Snapshot());

  // One TYPE line per base name, not per labeled series.
  EXPECT_NE(text.find("# TYPE test_requests_total counter\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_requests_total counter",
                      text.find("# TYPE test_requests_total counter") + 1),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total{method=\"Recommend\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total{method=\"Stats\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_nodes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_nodes -3\n"), std::string::npos);

  // Histogram: `le` is spliced into the existing label set, buckets are
  // cumulative, the last bucket is +Inf, and _count matches the total.
  EXPECT_NE(text.find("# TYPE test_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("test_latency_us_bucket{method=\"Recommend\",le=\"0\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("test_latency_us_bucket{method=\"Recommend\",le=\"5\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find(
                "test_latency_us_bucket{method=\"Recommend\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_us_count{method=\"Recommend\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_us_sum{method=\"Recommend\"} "),
            std::string::npos);
#endif
}

// ---------------------------------------------------------------------------
// Dispatch against a real (tiny) trained service

class DispatchTest : public ::testing::Test {
 protected:
  static datagen::WorldConfig TinyWorld() {
    datagen::WorldConfig config;
    config.num_parts = 6;
    config.num_article_codes = 40;
    config.num_error_codes = 80;
    config.max_codes_largest_part = 25;
    config.mid_part_min_codes = 8;
    config.mid_part_max_codes = 20;
    config.small_parts = 2;
    config.num_components = 80;
    config.num_symptoms = 70;
    config.num_locations = 20;
    config.num_solutions = 20;
    config.components_per_part = 6;
    return config;
  }

  DispatchTest() : world_(TinyWorld()) {
    datagen::OemConfig oem;
    oem.num_bundles = 600;
    datagen::OemCorpusGenerator generator(&world_, oem);
    corpus_ = generator.Generate();
    service_ = std::make_unique<quest::RecommendationService>(
        &world_.taxonomy(), quest::RecommendationService::Options{});
    QATK_CHECK(service_->Train(corpus_).ok());
  }

  Response Call(std::string_view payload) {
    auto request = ParseRequest(payload);
    QATK_CHECK(request.ok());
    return Dispatch(service_.get(), *request);
  }

  datagen::DomainWorld world_;
  kb::Corpus corpus_;
  std::unique_ptr<quest::RecommendationService> service_;
};

TEST_F(DispatchTest, RecommendMatchesDirectCall) {
  const kb::DataBundle& bundle = corpus_.bundles[0];
  Json params = Json::Object();
  params.Set("part_id", Json(bundle.part_id));
  params.Set("mechanic_report", Json(bundle.mechanic_report));
  params.Set("initial_oem_report", Json(bundle.initial_oem_report));
  params.Set("supplier_report", Json(bundle.supplier_report));
  Request request;
  request.id = 1;
  request.method = Method::kRecommend;
  request.params = params;
  const Response response = Dispatch(service_.get(), request);
  ASSERT_TRUE(response.ok()) << response.message;

  kb::DataBundle probe;
  probe.part_id = bundle.part_id;
  probe.mechanic_report = bundle.mechanic_report;
  probe.initial_oem_report = bundle.initial_oem_report;
  probe.supplier_report = bundle.supplier_report;
  auto direct = service_->Recommend(probe);
  ASSERT_TRUE(direct.ok());
  // The wire result must be byte-identical to re-encoding the direct one.
  EXPECT_EQ(response.result.Dump(), RecommendationToJson(*direct).Dump());
}

TEST_F(DispatchTest, FullListAndDescribe) {
  Response list = Call(
      R"({"id":2,"method":"FullListForPart","params":{"part_id":"P01"}})");
  ASSERT_TRUE(list.ok()) << list.message;
  const Json* codes = list.result.Find("codes");
  ASSERT_NE(codes, nullptr);
  ASSERT_TRUE(codes->is_array());
  ASSERT_GT(codes->items().size(), 0u);

  const std::string code =
      codes->items()[0].GetString("code", "");
  Response described = Call(
      R"({"id":3,"method":"DescribeCode","params":{"code":")" + code +
      R"("}})");
  EXPECT_TRUE(described.ok()) << described.message;
}

TEST_F(DispatchTest, ErrorsMapToStatusCodes) {
  EXPECT_EQ(Call(R"({"id":1,"method":"Nope"})").code,
            StatusCode::kInvalid);
  EXPECT_EQ(
      Call(R"({"id":1,"method":"DescribeCode","params":{"code":"E_X"}})")
          .code,
      StatusCode::kKeyError);
  // Health/Stats are server-level; Dispatch refuses them.
  EXPECT_EQ(Call(R"({"id":1,"method":"Health"})").code,
            StatusCode::kInvalid);
}

TEST_F(DispatchTest, IdIsEchoed) {
  EXPECT_EQ(Call(R"({"id":31337,"method":"Nope"})").id, 31337);
}

}  // namespace
}  // namespace qatk::server
