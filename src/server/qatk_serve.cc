// qatk_serve: train the QUEST recommendation service on the deterministic
// demo corpus, then serve it over TCP (length-prefixed JSON protocol, see
// src/server/protocol.h). SIGTERM/SIGINT triggers a graceful drain: the
// listener closes, every request already received is answered and flushed,
// then (with --data-dir) the service state is checkpointed, and the
// process exits 0 (nonzero only if the drain timed out and dropped
// in-flight responses).
//
// Usage:
//   qatk_serve [--host=127.0.0.1] [--port=0] [--threads=1]
//              [--max-in-flight=1024] [--idle-timeout-ms=60000]
//              [--drain-timeout-ms=10000] [--port-file=PATH]
//              [--metrics-interval-s=0] [--data-dir=DIR]
//              [--shard-index=I --shards=N [--sharder=hash]]
//
// A numeric flag whose value is not a whole decimal number in range for
// its field exits 2 ("invalid value for --<flag>"), as an unknown flag
// does.
//
// --port=0 binds an ephemeral port; --port-file writes the bound port to
// PATH once the server is accepting (how scripts/check.sh finds it).
// --metrics-interval-s=N > 0 logs a one-line serving summary (requests,
// p50/p99, shed) every N seconds; 0 (default) disables it. The full
// metric set is always available over the wire via the MetricsText
// method.
//
// --data-dir=DIR makes the service durable (DESIGN.md §13): on boot it
// recovers whatever state DIR holds (checkpoint snapshot + service-log
// replay) and only trains the demo corpus when DIR is empty; every
// ConfirmAssignment/DefineErrorCode is fsynced to DIR's service log
// before it is acknowledged, and the graceful drain ends with a
// checkpoint. kill -9 it, restart with the same --data-dir, and every
// acknowledged mutation is still there.
//
// --shards=N with --shard-index=I runs this process as shard I of an
// N-way cluster (DESIGN.md §14): training keeps only the knowledge nodes
// of the parts this shard owns under --sharder, and the ShardQuery /
// ShardTopK probes answer raw pre-dedup partials for the qatk_cluster
// front end to merge. The sharder (hash or range) must be identical
// across the whole cluster; the front end verifies it via the "shard"
// object in Health.
//
// Quick poke with nc (frames are 4-byte big-endian length + JSON):
//   printf '{"id":1,"method":"Health","params":{}}' | awk '{
//     printf "%c%c%c%c%s", 0, 0, 0, length($0), $0 }' | nc 127.0.0.1 PORT

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "cluster/sharder.h"
#include "common/logging.h"
#include "datagen/world.h"
#include "obs/metrics.h"
#include "quest/recommendation_service.h"
#include "server/demo_corpus.h"
#include "server/flags.h"
#include "server/server.h"

namespace {

qatk::server::Server* g_server = nullptr;

void HandleSignal(int) {
  // RequestDrain is async-signal-safe (atomic store + eventfd writes).
  if (g_server != nullptr) g_server->RequestDrain();
}

/// Periodic one-line serving summary, driven off the server counters and
/// the Recommend latency histogram. Runs on its own thread; Stop() wakes
/// the sleeper so shutdown never waits out a full interval.
class MetricsReporter {
 public:
  MetricsReporter(const qatk::server::Server* server, int interval_s)
      : server_(server), interval_s_(interval_s) {
    if (interval_s_ > 0) thread_ = std::thread([this] { Run(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  ~MetricsReporter() { Stop(); }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::seconds(interval_s_),
                       [this] { return stop_; })) {
        return;
      }
      LogSummary();
    }
  }

  void LogSummary() const {
    const qatk::server::ServerStats stats = server_->stats();
    qatk::obs::HistogramSnapshot recommend =
        qatk::obs::Registry::Global()
            .GetHistogram("qatk_server_request_us{method=\"Recommend\"}")
            ->Snapshot();
    QATK_LOG(INFO) << "serving: requests=" << stats.requests
                   << " ok=" << stats.responses_ok
                   << " error=" << stats.responses_error
                   << " shed=" << stats.shed << " recommend_p50_us="
                   << recommend.Quantile(0.5) << " recommend_p99_us="
                   << recommend.Quantile(0.99);
  }

  const qatk::server::Server* server_;
  const int interval_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  qatk::server::Server::Options options;
  std::string port_file;
  std::string data_dir;
  int metrics_interval_s = 0;
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  std::string sharder_name = "hash";
  for (int i = 1; i < argc; ++i) {
    const qatk::server::Flag flag(argv[i]);
    bool valid = true;
    if (flag.Is("--host")) {
      options.host = flag.value();
    } else if (flag.Is("--port")) {
      valid = flag.ParseNumber(&options.port);
    } else if (flag.Is("--threads")) {
      valid = flag.ParseNumber(&options.threads);
    } else if (flag.Is("--max-in-flight")) {
      valid = flag.ParseNumber(&options.max_in_flight);
    } else if (flag.Is("--idle-timeout-ms")) {
      valid = flag.ParseNumber(&options.idle_timeout_ms);
    } else if (flag.Is("--drain-timeout-ms")) {
      valid = flag.ParseNumber(&options.drain_timeout_ms);
    } else if (flag.Is("--port-file")) {
      port_file = flag.value();
    } else if (flag.Is("--data-dir")) {
      data_dir = flag.value();
    } else if (flag.Is("--shard-index")) {
      valid = flag.ParseNumber(&shard_index);
    } else if (flag.Is("--shards")) {
      valid = flag.ParseNumber(&num_shards);
    } else if (flag.Is("--sharder")) {
      sharder_name = flag.value();
    } else if (flag.Is("--metrics-interval-s") ||
               flag.Is("--metrics_interval_s")) {
      valid = flag.ParseNumber(&metrics_interval_s);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
    if (!valid) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n",
                   flag.name().c_str(), flag.value().c_str());
      return 2;
    }
  }

  qatk::quest::RecommendationService::Options service_options;
  if (num_shards > 1 || num_shards == 0) {
    if (num_shards == 0 || shard_index >= num_shards) {
      std::fprintf(stderr, "--shard-index=%u out of range for --shards=%u\n",
                   shard_index, num_shards);
      return 2;
    }
    std::shared_ptr<qatk::cluster::Sharder> sharder(
        qatk::cluster::MakeSharder(sharder_name, num_shards));
    if (sharder == nullptr) {
      std::fprintf(stderr, "unknown sharder: %s\n", sharder_name.c_str());
      return 2;
    }
    service_options.shard.shard_index = shard_index;
    service_options.shard.num_shards = num_shards;
    service_options.shard.sharder = sharder_name;
    service_options.shard.owns_part =
        [sharder, shard_index](const std::string& part_id) {
          return sharder->ShardFor(part_id) == shard_index;
        };
    std::fprintf(stderr, "shard %u/%u (sharder=%s)\n", shard_index,
                 num_shards, sharder_name.c_str());
  }

  std::fprintf(stderr, "building demo world + corpus...\n");
  qatk::datagen::DomainWorld world(qatk::server::DemoWorldConfig());
  qatk::server::DemoSplit split = qatk::server::GenerateDemoSplit(world);
  std::unique_ptr<qatk::quest::RecommendationService> durable_service;
  qatk::quest::RecommendationService* service = nullptr;
  if (!data_dir.empty()) {
    auto opened = qatk::quest::RecommendationService::Open(
        &world.taxonomy(), service_options, data_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "recovery from %s failed: %s\n",
                   data_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    durable_service = std::move(opened).ValueOrDie();
    service = durable_service.get();
    const qatk::quest::RecommendationService::DurabilityStats recovery =
        service->durability();
    std::fprintf(stderr,
                 "recovered from %s: snapshot=%s replayed_records=%llu "
                 "last_lsn=%llu recovery_us=%llu trained=%s\n",
                 data_dir.c_str(),
                 recovery.recovered_snapshot ? "yes" : "no",
                 static_cast<unsigned long long>(recovery.replayed_records),
                 static_cast<unsigned long long>(recovery.last_lsn),
                 static_cast<unsigned long long>(recovery.recovery_us),
                 service->trained() ? "yes" : "no");
  } else {
    durable_service = std::make_unique<qatk::quest::RecommendationService>(
        &world.taxonomy(), service_options);
    service = durable_service.get();
  }
  if (!service->trained()) {
    // Recovered state wins; only an empty data dir (or an ephemeral run)
    // trains the demo corpus.
    qatk::Status trained = service->Train(split.train);
    if (!trained.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   trained.ToString().c_str());
      return 1;
    }
  }

  qatk::server::Server server(service, options);
  qatk::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "serving on %s:%u (%zu thread%s)\n",
               options.host.c_str(), server.port(), options.threads,
               options.threads == 1 ? "" : "s");
  if (!port_file.empty()) {
    // Write to a temp name then rename, so a poller never reads a
    // half-written port.
    const std::string tmp = port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write port file %s\n", tmp.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::fprintf(stderr, "cannot rename port file into place\n");
      return 1;
    }
  }

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  // The summary logs at INFO, which the library default (warn) mutes;
  // asking for periodic summaries is an explicit opt-in, so raise the
  // level unless the operator pinned one via QATK_LOG_LEVEL.
  if (metrics_interval_s > 0 && std::getenv("QATK_LOG_LEVEL") == nullptr) {
    qatk::SetMinLogLevel(qatk::LogLevel::kInfo);
  }
  MetricsReporter reporter(&server, metrics_interval_s);
  const qatk::Status drained = server.Wait();
  reporter.Stop();
  const qatk::server::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "drained: accepted=%llu requests=%llu ok=%llu error=%llu "
               "shed=%llu deadline_exceeded=%llu protocol_errors=%llu "
               "drain_dropped=%llu\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.responses_error),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(stats.drain_dropped));
  if (service->durable()) {
    // Fold the replay tail into a snapshot so the next boot is O(1); the
    // log already holds every acked mutation, so a failed checkpoint
    // costs recovery time, not data.
    const qatk::Status checkpointed = service->Checkpoint();
    if (checkpointed.ok()) {
      std::fprintf(stderr, "checkpointed %s at lsn=%llu\n",
                   data_dir.c_str(),
                   static_cast<unsigned long long>(
                       service->durability().last_lsn));
    } else {
      std::fprintf(stderr, "checkpoint failed (state still recoverable "
                           "from the service log): %s\n",
                   checkpointed.ToString().c_str());
    }
  }
  if (!drained.ok()) {
    std::fprintf(stderr, "drain incomplete: %s\n",
                 drained.ToString().c_str());
    return 1;
  }
  return 0;
}
