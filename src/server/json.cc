#include "server/json.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <system_error>

namespace qatk::server {

namespace {

/// Per-thread stacks on which Json::Parser stages the members and items
/// of the objects and arrays still open. Each container is moved into
/// place, sized exactly once, when its closing bracket is read; nested
/// containers push above their parent's entries and pop back to them.
struct ParseStage {
  std::vector<std::pair<std::string, Json>> members;
  std::vector<Json> items;
};

ParseStage& ThreadParseStage() {
  thread_local ParseStage stage;
  return stage;
}

/// Stage capacity kept between parses; a larger hostile document does not
/// pin its peak on the thread.
constexpr size_t kMaxRetainedStage = 1024;

/// Index of the first byte at or after `pos` that a JSON string cannot
/// carry as itself ('"', '\\' or a control byte below 0x20), or
/// text.size(). Both directions of the codec copy the bytes before it in
/// one append.
size_t PlainRunEnd(std::string_view text, size_t pos) {
  if constexpr (std::endian::native == std::endian::little) {
    // Eight bytes per step. (x - 0x01..) & ~x & 0x80.. flags the bytes of
    // x that are zero, and with 0x20.. in place of 0x01.. the bytes below
    // 0x20. A borrow can flag a byte above a true hit but never below
    // one, so the lowest flag is exact.
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    constexpr uint64_t kHighBits = 0x8080808080808080ULL;
    while (pos + 8 <= text.size()) {
      uint64_t word;
      std::memcpy(&word, text.data() + pos, sizeof(word));
      const uint64_t quote = word ^ (kOnes * '"');
      const uint64_t backslash = word ^ (kOnes * '\\');
      const uint64_t flags = (((quote - kOnes) & ~quote) |
                              ((backslash - kOnes) & ~backslash) |
                              ((word - kOnes * 0x20) & ~word)) &
                             kHighBits;
      if (flags != 0) {
        return pos + static_cast<size_t>(std::countr_zero(flags)) / 8;
      }
      pos += 8;
    }
  }
  while (pos < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[pos]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++pos;
  }
  return pos;
}

}  // namespace

Status JsonCursor::Error(const char* what) const {
  return Status::Invalid("JSON parse error at byte " + std::to_string(pos_) +
                         ": " + what);
}

void JsonCursor::SkipWhitespace() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonCursor::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

Status JsonCursor::BeginValue(int depth) {
  if (depth > kMaxDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  return Status::OK();
}

Status JsonCursor::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Error("trailing bytes after JSON document");
  }
  return Status::OK();
}

bool JsonCursor::EnterObject() {
  ++pos_;  // '{'
  SkipWhitespace();
  return !Consume('}');
}

Status JsonCursor::ReadKey(std::string* key) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected object key");
  }
  QATK_RETURN_NOT_OK(ReadString(key));
  SkipWhitespace();
  if (!Consume(':')) return Error("expected ':' after object key");
  return Status::OK();
}

Status JsonCursor::NextMember(bool* more) {
  SkipWhitespace();
  if (Consume(',')) {
    *more = true;
  } else if (Consume('}')) {
    *more = false;
  } else {
    return Error("expected ',' or '}' in object");
  }
  return Status::OK();
}

bool JsonCursor::EnterArray() {
  ++pos_;  // '['
  SkipWhitespace();
  return !Consume(']');
}

Status JsonCursor::NextItem(bool* more) {
  SkipWhitespace();
  if (Consume(',')) {
    *more = true;
  } else if (Consume(']')) {
    *more = false;
  } else {
    return Error("expected ',' or ']' in array");
  }
  return Status::OK();
}

Status JsonCursor::SkipValue(int depth) {
  QATK_RETURN_NOT_OK(BeginValue(depth));
  switch (Peek()) {
    case '{':
      for (bool more = EnterObject(); more;) {
        QATK_RETURN_NOT_OK(ReadKey(nullptr));
        QATK_RETURN_NOT_OK(SkipValue(depth + 1));
        QATK_RETURN_NOT_OK(NextMember(&more));
      }
      return Status::OK();
    case '[':
      for (bool more = EnterArray(); more;) {
        QATK_RETURN_NOT_OK(SkipValue(depth + 1));
        QATK_RETURN_NOT_OK(NextItem(&more));
      }
      return Status::OK();
    case '"':
      return ReadString(nullptr);
    default:
      return ReadScalar(nullptr);
  }
}

Status JsonCursor::ParseHex4(uint32_t* out) {
  if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    char c = text_[pos_ + i];
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return Error("invalid \\u escape digit");
    }
  }
  pos_ += 4;
  *out = value;
  return Status::OK();
}

namespace {

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// The byte an escape sequence `\<esc>` stands for, or 0 when `esc` is not
/// a one-byte escape.
char UnescapeByte(char esc) {
  switch (esc) {
    case '"': return '"';
    case '\\': return '\\';
    case '/': return '/';
    case 'b': return '\b';
    case 'f': return '\f';
    case 'n': return '\n';
    case 'r': return '\r';
    case 't': return '\t';
    default: return 0;
  }
}

}  // namespace

Status JsonCursor::ReadString(std::string* out) {
  ++pos_;  // opening quote
  if (out != nullptr) out->clear();
  for (;;) {
    const size_t run = pos_;
    pos_ = PlainRunEnd(text_, pos_);
    if (out != nullptr) out->append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) return Error("unterminated string");
    char c = text_[pos_++];
    if (c == '"') return Status::OK();
    if (c != '\\') return Error("raw control character in string");
    if (pos_ >= text_.size()) return Error("truncated escape");
    const char esc = text_[pos_++];
    if (esc != 'u') {
      const char byte = UnescapeByte(esc);
      if (byte == 0) return Error("invalid escape character");
      if (out != nullptr) out->push_back(byte);
      continue;
    }
    uint32_t cp = 0;
    QATK_RETURN_NOT_OK(ParseHex4(&cp));
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: must be followed by \uDC00..\uDFFF.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return Error("lone high surrogate");
      }
      pos_ += 2;
      uint32_t low = 0;
      QATK_RETURN_NOT_OK(ParseHex4(&low));
      if (low < 0xDC00 || low > 0xDFFF) {
        return Error("invalid low surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return Error("lone low surrogate");
    }
    if (out != nullptr) AppendUtf8(cp, out);
  }
}

Status JsonCursor::ReadScalar(Json* out) {
  const std::string_view rest = text_.substr(pos_);
  for (const std::string_view literal : {"true", "false", "null"}) {
    if (rest.front() != literal.front()) continue;
    if (rest.substr(0, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    if (out != nullptr) {
      *out = literal == "null" ? Json() : Json(literal == "true");
    }
    return Status::OK();
  }
  const size_t start = pos_;
  Consume('-');
  if (pos_ >= text_.size() ||
      !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
    return Error("invalid number");
  }
  if (text_[pos_] == '0') {
    ++pos_;  // JSON forbids leading zeros: "0" but never "01".
    if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      return Error("leading zero in number");
    }
  } else {
    while (pos_ < text_.size() && text_[pos_] >= '0' &&
           text_[pos_] <= '9') {
      ++pos_;
    }
  }
  if (Consume('.')) {
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("digits required after decimal point");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' &&
           text_[pos_] <= '9') {
      ++pos_;
    }
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() &&
        (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("digits required in exponent");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' &&
           text_[pos_] <= '9') {
      ++pos_;
    }
  }
  if (out == nullptr) return Status::OK();
  // The slice is a valid JSON number by construction, which is also
  // valid from_chars input (JSON has no leading '+').
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  double value = 0;
  if (std::from_chars(first, last, value).ec ==
      std::errc::result_out_of_range) {
    // from_chars leaves `value` untouched when the literal overflows or
    // underflows to zero; strtod gives the +-inf / signed zero the wire
    // has always decoded. Rare, so the NUL-terminated copy is fine.
    value = std::strtod(std::string(first, last).c_str(), nullptr);
  }
  *out = Json(value);
  return Status::OK();
}

/// Builds the document tree over a JsonCursor, which owns the grammar.
class Json::Parser {
 public:
  explicit Parser(std::string_view text)
      : cursor_(text), stage_(ThreadParseStage()) {}

  ~Parser() {
    // An error return leaves the open containers' entries staged.
    stage_.members.clear();
    stage_.items.clear();
    if (stage_.members.capacity() > kMaxRetainedStage) {
      stage_.members.shrink_to_fit();
    }
    if (stage_.items.capacity() > kMaxRetainedStage) {
      stage_.items.shrink_to_fit();
    }
  }

  Result<Json> ParseDocument() {
    Json value;
    QATK_RETURN_NOT_OK(ParseValue(0, &value));
    QATK_RETURN_NOT_OK(cursor_.Finish());
    return value;
  }

 private:
  /// `out` is a fresh, null Json.
  Status ParseValue(int depth, Json* out) {
    QATK_RETURN_NOT_OK(cursor_.BeginValue(depth));
    switch (cursor_.Peek()) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"':
        out->type_ = Type::kString;
        return cursor_.ReadString(&out->string_);
      default:
        return cursor_.ReadScalar(out);
    }
  }

  /// Moves the entries staged from `base` up into `out`, allocating it
  /// once at its final size, and pops them off the stage.
  template <typename T>
  static void Unstage(size_t base, std::vector<T>* staged,
                      std::vector<T>* out) {
    const auto first = staged->begin() + static_cast<ptrdiff_t>(base);
    out->assign(std::make_move_iterator(first),
                std::make_move_iterator(staged->end()));
    staged->erase(first, staged->end());
  }

  Status ParseObject(int depth, Json* out) {
    out->type_ = Type::kObject;
    std::vector<std::pair<std::string, Json>>& staged = stage_.members;
    const size_t base = staged.size();
    for (bool more = cursor_.EnterObject(); more;) {
      std::string key;
      QATK_RETURN_NOT_OK(cursor_.ReadKey(&key));
      Json value;
      QATK_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      // Same rule as Set: a repeated key keeps its first position and
      // takes the last value.
      bool repeated = false;
      for (size_t i = base; i < staged.size(); ++i) {
        if (staged[i].first == key) {
          staged[i].second = std::move(value);
          repeated = true;
          break;
        }
      }
      if (!repeated) staged.emplace_back(std::move(key), std::move(value));
      QATK_RETURN_NOT_OK(cursor_.NextMember(&more));
    }
    Unstage(base, &staged, &out->members_);
    return Status::OK();
  }

  Status ParseArray(int depth, Json* out) {
    out->type_ = Type::kArray;
    std::vector<Json>& staged = stage_.items;
    const size_t base = staged.size();
    for (bool more = cursor_.EnterArray(); more;) {
      Json value;
      QATK_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      staged.push_back(std::move(value));
      QATK_RETURN_NOT_OK(cursor_.NextItem(&more));
    }
    Unstage(base, &staged, &out->items_);
    return Status::OK();
  }

  JsonCursor cursor_;
  ParseStage& stage_;
};

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json* Json::Find(std::string_view key) {
  return const_cast<Json*>(std::as_const(*this).Find(key));
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json* member = Find(key);
  if (member == nullptr || !member->is_string()) return fallback;
  return member->string_value();
}

double Json::GetNumber(std::string_view key, double fallback) const {
  const Json* member = Find(key);
  if (member == nullptr || !member->is_number()) return fallback;
  return member->number_value();
}

int64_t Json::GetInt(std::string_view key, int64_t fallback) const {
  const Json* member = Find(key);
  if (member == nullptr || !member->is_number()) return fallback;
  return JsonNumberToInt(member->number_value(), fallback);
}

int64_t JsonNumberToInt(double value, int64_t fallback) {
  // [-2^63, 2^63) is exactly the range the cast is defined on; NaN fails
  // both comparisons.
  if (!(value >= -9223372036854775808.0 && value < 9223372036854775808.0)) {
    return fallback;
  }
  return static_cast<int64_t>(value);
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* member = Find(key);
  if (member == nullptr || !member->is_bool()) return fallback;
  return member->bool_value();
}

Json& Json::Set(std::string key, Json value) {
  QATK_DCHECK(type_ == Type::kObject);
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Append(Json value) {
  QATK_DCHECK(type_ == Type::kArray);
  items_.push_back(std::move(value));
  return *this;
}

void Json::Reserve(size_t n) {
  if (type_ == Type::kObject) members_.reserve(n);
  if (type_ == Type::kArray) items_.reserve(n);
}

void JsonEscape(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t pos = 0;
  for (;;) {
    const size_t run = pos;
    pos = PlainRunEnd(text, pos);
    out->append(text.data() + run, pos - run);
    if (pos == text.size()) return;
    const unsigned char c = static_cast<unsigned char>(text[pos++]);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
}

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {  // JSON has no Inf/NaN.
    out->append("null");
    return;
  }
  // Enough for any int64 and for the longest %.17g form,
  // "-2.2250738585072014e-308" (24 bytes).
  char buf[32];
  std::to_chars_result printed;
  // Integral values in the exactly-representable range print as integers:
  // ids and counters stay clean, and parsing recovers the exact value.
  // (Negative zero takes the general path so its sign survives the trip.)
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15 &&
      !std::signbit(value)) {
    printed = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<int64_t>(value));
  } else {
    // 17 significant digits: enough for any double to round-trip exactly.
    // general at precision 17 is specified as printf's %.17g.
    printed = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17);
  }
  out->append(buf, static_cast<size_t>(printed.ptr - buf));
}

std::string JsonNumberToString(double value) {
  std::string out;
  AppendJsonNumber(value, &out);
  return out;
}

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      AppendJsonNumber(number_, out);
      return;
    case Type::kString:
      out->push_back('"');
      JsonEscape(string_, out);
      out->push_back('"');
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out->push_back(',');
        first = false;
        item.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        JsonEscape(key, out);
        out->push_back('"');
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

}  // namespace qatk::server
