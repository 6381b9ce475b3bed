#ifndef QATK_BENCH_BENCH_UTIL_H_
#define QATK_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/strutil.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "eval/evaluator.h"

namespace qatk::benchutil {

/// \brief Streaming pretty-printed JSON emitter for BENCH_*.json files.
///
/// Commas, newlines, and two-space indentation are handled by the writer,
/// so benches only state structure: Key("qps").Value(x, 1). Shared by
/// bench_knn_throughput and bench_serving_load so every machine-readable
/// artifact has the same shape conventions.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() {
    Separate();
    out_->push_back('{');
    frames_.push_back(true);
    return *this;
  }

  JsonWriter& EndObject() {
    CloseFrame('}');
    return *this;
  }

  JsonWriter& BeginArray() {
    Separate();
    out_->push_back('[');
    frames_.push_back(true);
    return *this;
  }

  JsonWriter& EndArray() {
    CloseFrame(']');
    return *this;
  }

  JsonWriter& Key(std::string_view key) {
    Separate();
    out_->push_back('"');
    Escape(key);
    out_->append("\": ");
    after_key_ = true;
    return *this;
  }

  JsonWriter& Value(std::string_view text) {
    Separate();
    out_->push_back('"');
    Escape(text);
    out_->push_back('"');
    return *this;
  }
  JsonWriter& Value(const char* text) {
    return Value(std::string_view(text));
  }
  JsonWriter& Value(bool value) {
    Separate();
    out_->append(value ? "true" : "false");
    return *this;
  }
  JsonWriter& Value(int64_t value) {
    Separate();
    out_->append(std::to_string(value));
    return *this;
  }
  JsonWriter& Value(uint64_t value) {
    Separate();
    out_->append(std::to_string(value));
    return *this;
  }
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  /// `precision` >= 0 prints fixed decimals (qps with 1, latency with 2);
  /// the default %g keeps ratios compact.
  JsonWriter& Value(double value, int precision = -1) {
    Separate();
    char buf[40];
    if (precision >= 0) {
      std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    } else {
      std::snprintf(buf, sizeof(buf), "%g", value);
    }
    out_->append(buf);
    return *this;
  }

  /// Finishes the document with a trailing newline. All containers must
  /// be closed.
  void Finish() {
    if (out_->empty() || out_->back() != '\n') out_->push_back('\n');
  }

 private:
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (frames_.empty()) return;
    if (!frames_.back()) out_->push_back(',');
    frames_.back() = false;
    out_->push_back('\n');
    out_->append(2 * frames_.size(), ' ');
  }

  void CloseFrame(char close) {
    const bool was_empty = frames_.back();
    frames_.pop_back();
    if (!was_empty) {
      out_->push_back('\n');
      out_->append(2 * frames_.size(), ' ');
    }
    out_->push_back(close);
  }

  void Escape(std::string_view text) {
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out_->push_back('\\');
        out_->push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out_->append(buf);
      } else {
        out_->push_back(c);
      }
    }
  }

  std::string* out_;
  std::vector<bool> frames_;  ///< One empty-so-far flag per open scope.
  bool after_key_ = false;
};

/// Writes `content` to `path` (stdio, no partial-write recovery — bench
/// artifacts are regenerated wholesale every run).
inline bool WriteFile(const char* path, const std::string& content) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), out);
  std::fclose(out);
  return true;
}

/// Runs the standard 5-fold evaluation for one probe mask and prints the
/// paper-style table; optionally writes the CSV series to `csv_path`.
inline int RunFigureBench(const char* title, unsigned probe_mask,
                          const char* csv_path) {
  datagen::DomainWorld world;
  datagen::OemCorpusGenerator generator(&world);
  kb::Corpus corpus = generator.Generate();

  eval::Evaluator evaluator(&world.taxonomy(), &corpus);
  eval::EvalConfig config;
  config.probe_masks = {probe_mask};
  auto report = evaluator.Run(config);
  report.status().Abort();

  std::printf("%s\n\n%s\n", title, report->FormatTable(probe_mask).c_str());
  std::printf("%s\n", report->FormatTimings(probe_mask).c_str());

  if (csv_path != nullptr) {
    std::ofstream csv_file(csv_path);
    CsvWriter csv(&csv_file);
    std::vector<std::string> header = {"variant"};
    for (size_t k : report->ks) header.push_back("a@" + std::to_string(k));
    csv.WriteRow(header);
    for (const auto* curve : report->CurvesFor(probe_mask)) {
      std::vector<std::string> row = {curve->name};
      for (double a : curve->accuracy_at) row.push_back(FormatDouble(a, 4));
      csv.WriteRow(row);
    }
    std::printf("series written to %s\n", csv_path);
  }
  return 0;
}

}  // namespace qatk::benchutil

#endif  // QATK_BENCH_BENCH_UTIL_H_
