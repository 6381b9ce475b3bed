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
//              [--data-dir=DIR]
//              [--shard-index=I --shards=N]
//
// A numeric flag whose value is not a whole decimal number in range for
// its field exits 2 ("invalid value for --<flag>"), as an unknown flag
// does.
//
// --port=0 binds an ephemeral port; --port-file writes the bound port to
// PATH once the server is accepting (how scripts/check.sh finds it).
// Serving metrics are read over the wire: the Stats and MetricsText
// methods.
//
// --data-dir=DIR makes the service durable (DESIGN.md §13): on boot it
// recovers whatever state DIR holds (checkpoint snapshot + service-log
// replay) and only trains the demo corpus when DIR is empty; every
// ConfirmAssignment/DefineErrorCode is fsynced to DIR's service log
// before it is acknowledged, and the graceful drain ends with a
// checkpoint. kill -9 it, restart with the same --data-dir, and every
// acknowledged mutation is still there.
//
// --shards=N with --shard-index=I (default 0) runs this process as shard
// I of an N-way cluster (DESIGN.md §14), for every N >= 1: training keeps
// only the knowledge nodes of the parts this shard owns under the hash
// sharder, and the ShardQuery / ShardTopK probes answer raw pre-dedup
// partials for the qatk_cluster front end to merge. Health reports the
// shard's index, shard count and sharder name in a "shard" object, which
// the front end verifies. --shard-index without --shards, or an index
// outside [0, N), exits 2.
//
// Quick poke with nc (frames are 4-byte big-endian length + JSON):
//   printf '{"id":1,"method":"Health","params":{}}' | awk '{
//     printf "%c%c%c%c%s", 0, 0, 0, length($0), $0 }' | nc 127.0.0.1 PORT

#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cluster/sharder.h"
#include "datagen/world.h"
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

}  // namespace

int main(int argc, char** argv) {
  qatk::server::Server::Options options;
  std::string port_file;
  std::string data_dir;
  // Set only by the flags: a process given neither serves unscoped.
  std::optional<uint32_t> shard_index;
  std::optional<uint32_t> num_shards;
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
      valid = flag.ParseNumber(&shard_index.emplace());
    } else if (flag.Is("--shards")) {
      valid = flag.ParseNumber(&num_shards.emplace());
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
  if (shard_index.has_value() && !num_shards.has_value()) {
    std::fprintf(stderr, "--shard-index needs --shards\n");
    return 2;
  }
  if (num_shards.has_value()) {
    const uint32_t n = *num_shards;
    const uint32_t index = shard_index.value_or(0);
    if (index >= n) {
      std::fprintf(stderr, "--shard-index=%u out of range for --shards=%u\n",
                   index, n);
      return 2;
    }
    const qatk::cluster::Sharder sharder(n);
    service_options.shard.shard_index = index;
    service_options.shard.num_shards = n;
    service_options.shard.sharder = sharder.name();
    service_options.shard.owns_part =
        [sharder, index](const std::string& part_id) {
          return sharder.ShardFor(part_id) == index;
        };
    std::fprintf(stderr, "shard %u/%u (sharder=%s)\n", index, n,
                 sharder.name());
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
  if (!port_file.empty() &&
      !qatk::server::WritePortFile(port_file, server.port())) {
    return 1;
  }

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  const qatk::Status drained = server.Wait();
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
