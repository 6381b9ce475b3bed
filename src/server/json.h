#ifndef QATK_SERVER_JSON_H_
#define QATK_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qatk::server {

/// \brief Minimal, dependency-free JSON document model for the wire
/// protocol: parse, navigate, build, serialize.
///
/// Design points that matter for the protocol:
///  * Objects preserve insertion order (a vector of pairs, not a map), so
///    encoded requests/responses are byte-deterministic and diffable;
///    lookups are linear, which is fine for the handful of keys a frame
///    carries.
///  * Numbers are doubles. AppendJsonNumber prints them with
///    std::to_chars: non-negative integral values below 2^53 as integers
///    (no exponent, no ".0"), everything else in chars_format::general at
///    precision 17, which is byte-for-byte the output of printf("%.17g").
///    17 digits round-trip any IEEE-754 double, so a similarity score
///    survives encode -> parse bit-for-bit. Parse reads numbers with
///    std::from_chars straight off the frame bytes and falls back to
///    std::strtod on out_of_range, so overflow still decodes to +-inf and
///    total underflow to a signed zero, exactly as strtod would.
///  * Parse enforces a nesting-depth cap and rejects trailing garbage, so
///    a hostile frame cannot stack-overflow the server or smuggle bytes.
///    The grammar lives in JsonCursor (below); Parse only builds the tree.
///    Each object and array is sized once: its members are staged on a
///    per-thread stack while it is parsed and moved into place at its
///    closing bracket.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete JSON document (object, array, or scalar). Fails
  /// with Invalid naming the byte offset of the first error.
  static Result<Json> Parse(std::string_view text);

  Json() : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}  // NOLINT
  Json(double value) : type_(Type::kNumber), number_(value) {}  // NOLINT
  Json(int64_t value)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(std::string value)  // NOLINT
      : type_(Type::kString), string_(std::move(value)) {}
  Json(std::string_view value)  // NOLINT
      : type_(Type::kString), string_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}  // NOLINT

  static Json Object() {
    Json json;
    json.type_ = Type::kObject;
    return json;
  }
  static Json Array() {
    Json json;
    json.type_ = Type::kArray;
    return json;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Object member by key, or nullptr when absent / not an object.
  const Json* Find(std::string_view key) const;
  /// Mutable overload, so a decoder can move a member out of a parsed
  /// document instead of copying it.
  Json* Find(std::string_view key);

  /// Typed member accessors with defaults, for tolerant decoding.
  std::string GetString(std::string_view key,
                        std::string fallback = std::string()) const;
  double GetNumber(std::string_view key, double fallback = 0) const;
  /// GetInt also returns `fallback` for a number that is not finite or
  /// lies outside the int64 range, where the cast would be undefined.
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  /// Appends/overwrites an object member (first write wins position).
  Json& Set(std::string key, Json value);
  /// Appends an array element.
  Json& Append(Json value);
  /// Reserves room for `n` array items or object members (by type).
  void Reserve(size_t n);

  /// Serializes compactly (no whitespace). Deterministic: member order is
  /// insertion order.
  std::string Dump() const;

  /// Dump() into a caller-owned buffer (appends). Lets hot paths reuse one
  /// scratch string per event loop instead of allocating per response.
  void DumpTo(std::string* out) const;

 private:
  class Parser;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// \brief The JSON grammar, one token at a time: a cursor over one document
/// that reads strings and scalars, walks objects and arrays, and validates
/// whole values without building them.
///
/// Json::Parse builds its tree on these primitives, and decoders that fill
/// their own structs (DecodeRequestInto) read through them directly, so
/// there is one grammar: the same depth cap, escape and surrogate rules,
/// number grammar and trailing-bytes check, and the same error text at the
/// same byte offset. A decoder walks an object as
///
///   QATK_RETURN_NOT_OK(cursor.BeginValue(depth));   // then Peek() == '{'
///   for (bool more = cursor.EnterObject(); more;) {
///     QATK_RETURN_NOT_OK(cursor.ReadKey(&key));
///     ... read or SkipValue(depth + 1) ...
///     QATK_RETURN_NOT_OK(cursor.NextMember(&more));
///   }
///
/// The readers reuse the capacity of the strings they fill, and a null
/// target validates without storing, so a warmed-up decoder allocates
/// nothing.
class JsonCursor {
 public:
  /// Values nested deeper than this are rejected ("nesting too deep").
  static constexpr int kMaxDepth = 64;

  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Start of a value at nesting `depth` (the document is depth 0): checks
  /// the depth cap, skips whitespace and fails at the end of input. On OK,
  /// Peek() is the value's first byte.
  Status BeginValue(int depth);
  char Peek() const { return text_[pos_]; }

  /// At '"': reads the string into `*out` (replacing its contents), or only
  /// validates it when `out` is null.
  Status ReadString(std::string* out);
  /// At a value that is not a string, object or array: reads true, false,
  /// null or a number into `*out`, or only validates it when `out` is null.
  Status ReadScalar(Json* out);
  /// Validates one value of any type at `depth` without building it.
  Status SkipValue(int depth);

  /// At '{': consumes it; returns false when the object is empty (its '}'
  /// consumed too).
  bool EnterObject();
  /// The next member's key and its ':' (`key` may be null).
  Status ReadKey(std::string* key);
  /// After a member's value: ',' sets `*more`, '}' clears it.
  Status NextMember(bool* more);
  /// At '[': consumes it; returns false when the array is empty.
  bool EnterArray();
  /// After an item: ',' sets `*more`, ']' clears it.
  Status NextItem(bool* more);

  /// After the document's value: only whitespace may follow.
  Status Finish();

 private:
  Status Error(const char* what) const;
  void SkipWhitespace();
  bool Consume(char c);
  Status ParseHex4(uint32_t* out);

  std::string_view text_;
  size_t pos_ = 0;
};

/// The int64 that Json::GetInt reads from a number: truncated toward zero,
/// or `fallback` when the value is not finite or lies outside the int64
/// range, where the cast would be undefined.
int64_t JsonNumberToInt(double value, int64_t fallback);

/// Appends `text` to `out` with JSON string escaping (quotes, backslash,
/// control characters as \uXXXX). Shared by Json::Dump and any hand-rolled
/// emitter that must stay wire-compatible.
void JsonEscape(std::string_view text, std::string* out);

/// Appends `value` to `out` the way Json::Dump prints numbers: "null"
/// for Inf/NaN, non-negative integral values below 2^53 as integers
/// (std::to_chars of the int64), everything else as
/// std::to_chars(chars_format::general, 17), whose bytes equal
/// printf("%.17g").
void AppendJsonNumber(double value, std::string* out);

/// AppendJsonNumber into a fresh string.
std::string JsonNumberToString(double value);

}  // namespace qatk::server

#endif  // QATK_SERVER_JSON_H_
