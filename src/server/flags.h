#ifndef QATK_SERVER_FLAGS_H_
#define QATK_SERVER_FLAGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace qatk::server {

/// \brief One `--name=value` command-line argument, as qatk_serve and
/// qatk_cluster take them.
///
///   const Flag flag(argv[i]);
///   if (flag.Is("--port") && !flag.ParseNumber(&options.port)) {
///     // print "invalid value for --port", exit 2
///   }
class Flag {
 public:
  /// An argument without '=' has no value and matches no name.
  explicit Flag(std::string_view arg) {
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos) return;
    name_ = arg.substr(0, eq);
    value_ = arg.substr(eq + 1);
  }

  /// True when the argument sets flag `name` (e.g. "--port").
  bool Is(std::string_view name) const { return name == name_; }

  const std::string& name() const { return name_; }
  const std::string& value() const { return value_; }

  /// Parses the whole value as a decimal number of type T. False, leaving
  /// `*out` as it was, when the value is empty, is not a number, has
  /// trailing characters, has a sign T cannot hold, or is out of T's range
  /// (so `--port=70000` does not wrap into a uint16_t).
  template <typename T>
  bool ParseNumber(T* out) const {
    T parsed{};
    const char* const end = value_.data() + value_.size();
    const auto [ptr, ec] = std::from_chars(value_.data(), end, parsed);
    if (ec != std::errc() || ptr != end) return false;
    *out = parsed;
    return true;
  }

 private:
  std::string name_;
  std::string value_;
};

}  // namespace qatk::server

#endif  // QATK_SERVER_FLAGS_H_
