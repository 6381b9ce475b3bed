#ifndef QATK_SERVER_FLAGS_H_
#define QATK_SERVER_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
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

/// Writes `port` to `path` for a script or launcher that polls for it,
/// as qatk_serve's and qatk_cluster's --port-file do: to `path`.tmp, then
/// renamed into place, so a poller never reads a half-written port.
/// Prints why and returns false when either step fails.
inline bool WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write port file %s\n", tmp.c_str());
    return false;
  }
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename port file into place\n");
    return false;
  }
  return true;
}

}  // namespace qatk::server

#endif  // QATK_SERVER_FLAGS_H_
