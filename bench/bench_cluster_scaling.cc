// Shard-scaling bench for the scatter-gather cluster (DESIGN.md §14):
// brings up in-process clusters of 1..4 single-threaded shard workers
// behind a Coordinator front end and measures end-to-end Recommend
// throughput as shards are added.
//
// Before timing anything it proves the load-bearing property: every
// held-out bundle replayed through the cluster front end must produce a
// response BIT-IDENTICAL to a single-node service trained on the same
// corpus — at every shard count, including unknown-part probes that
// exercise the fallback scatter.
//
// Emits machine-readable BENCH_cluster.json, stamped with the commit and
// build type it measured (read when CMake configures the tree). Exit
// status is the gate used by scripts/check.sh: nonzero on any
// equivalence mismatch, and (only on hosts with >= 4 cores, where shard
// processes can actually run in parallel) on a 1->4 shard throughput
// table that is not monotonically non-decreasing within a 0.95x per-step
// tolerance.
//
// Usage: bench_cluster_scaling [--quick] [--out=BENCH_cluster.json]
//                              [--connect=PORT]
//
// --connect=PORT skips the in-process cluster phases and replays the
// equivalence sweep against an already-running qatk_cluster front end on
// 127.0.0.1 (both sides train the same deterministic demo corpus, so
// responses still match bit-for-bit). Used by the check.sh cluster stage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/coordinator.h"
#include "cluster/sharder.h"
#include "datagen/world.h"
#include "kb/data_bundle.h"
#include "quest/recommendation_service.h"
#include "server/client.h"
#include "server/demo_corpus.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using qatk::cluster::Coordinator;
using qatk::cluster::ShardEndpoint;
using qatk::quest::RecommendationService;
using qatk::server::Client;
using qatk::server::Json;
using qatk::server::Server;

/// The replay set: every held-out bundle plus a handful of unknown-part
/// probes (the coordinator's fallback-scatter path).
std::vector<qatk::kb::DataBundle> BuildProbes(
    const std::vector<qatk::kb::DataBundle>& heldout) {
  std::vector<qatk::kb::DataBundle> probes = heldout;
  for (int i = 0; i < 8; ++i) {
    qatk::kb::DataBundle probe = heldout[(i * 151) % heldout.size()];
    probe.part_id = "ZZ-UNKNOWN-" + std::to_string(i);
    probes.push_back(std::move(probe));
  }
  return probes;
}

std::vector<std::string> EncodeReplayFrames(
    const std::vector<qatk::kb::DataBundle>& bundles) {
  std::vector<std::string> frames;
  frames.reserve(bundles.size());
  for (size_t i = 0; i < bundles.size(); ++i) {
    std::string frame;
    qatk::server::AppendFrame(
        qatk::server::EncodeRequest(static_cast<int64_t>(i), "Recommend",
                                    qatk::server::BundleToParams(bundles[i])),
        &frame);
    frames.push_back(std::move(frame));
  }
  return frames;
}

RecommendationService::Options ScopedOptions(uint32_t index, uint32_t n) {
  RecommendationService::Options options;
  const qatk::cluster::Sharder sharder(n);
  options.shard.shard_index = index;
  options.shard.num_shards = n;
  options.shard.sharder = sharder.name();
  options.shard.owns_part = [sharder, index](const std::string& part) {
    return sharder.ShardFor(part) == index;
  };
  return options;
}

/// One in-process cluster: N scoped shard services behind single-threaded
/// servers, a Coordinator, and a front-end server.
struct ClusterUnderTest {
  std::vector<std::unique_ptr<RecommendationService>> shards;
  std::vector<std::unique_ptr<Server>> shard_servers;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<Server> front;

  ~ClusterUnderTest() {
    if (front) front->Drain().Abort();
    front.reset();
    coordinator.reset();
    for (auto& server : shard_servers) server->Drain().Abort();
  }
};

std::unique_ptr<ClusterUnderTest> BuildCluster(
    qatk::datagen::DomainWorld* world, const qatk::kb::Corpus& train,
    uint32_t n, size_t front_threads) {
  auto cluster = std::make_unique<ClusterUnderTest>();
  Coordinator::Options options;
  for (uint32_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<RecommendationService>(
        &world->taxonomy(), ScopedOptions(i, n));
    if (!shard->Train(train).ok()) return nullptr;
    // One event-loop thread per shard: the scaling table measures the
    // effect of adding *shards*, not threads.
    auto server = std::make_unique<Server>(
        shard.get(), Server::Options{.port = 0, .threads = 1});
    if (!server->Start().ok()) return nullptr;
    options.shards.push_back(ShardEndpoint{"127.0.0.1", server->port()});
    cluster->shards.push_back(std::move(shard));
    cluster->shard_servers.push_back(std::move(server));
  }
  cluster->coordinator = std::make_unique<Coordinator>(std::move(options));
  if (!cluster->coordinator->Connect().ok()) return nullptr;
  cluster->front = std::make_unique<Server>(
      cluster->coordinator.get(),
      Server::Options{.port = 0, .threads = front_threads});
  if (!cluster->front->Start().ok()) return nullptr;
  return cluster;
}

/// Replays every probe through the front end and compares against the
/// single-node reference, bit for bit. Returns the mismatch count.
size_t RunEquivalence(uint16_t port, const RecommendationService& reference,
                      const std::vector<qatk::kb::DataBundle>& probes) {
  Client client;
  if (!client.Connect("127.0.0.1", port, 30000).ok()) {
    std::fprintf(stderr, "equivalence connect failed\n");
    return probes.size();
  }
  size_t mismatches = 0;
  constexpr size_t kWindow = 32;
  for (size_t base = 0; base < probes.size(); base += kWindow) {
    const size_t count = std::min(kWindow, probes.size() - base);
    for (size_t i = 0; i < count; ++i) {
      auto sent = client.Send(static_cast<int64_t>(base + i), "Recommend",
                              qatk::server::BundleToParams(probes[base + i]));
      if (!sent.ok()) return mismatches + (probes.size() - base);
    }
    for (size_t i = 0; i < count; ++i) {
      auto response = client.Receive();
      if (!response.ok()) {
        std::fprintf(stderr, "receive failed: %s\n",
                     response.status().ToString().c_str());
        return mismatches + (probes.size() - base - i);
      }
      auto direct = reference.Recommend(probes[base + i]);
      const std::string wire = response->result.Dump();
      const std::string want =
          direct.ok() ? qatk::server::RecommendationToJson(*direct).Dump()
                      : "null";
      if (response->ok() != direct.ok() || (direct.ok() && wire != want)) {
        if (++mismatches <= 3) {
          std::fprintf(stderr,
                       "MISMATCH probe %zu (part %s):\n  wire: %s\n  want: "
                       "%s\n",
                       base + i, probes[base + i].part_id.c_str(),
                       wire.c_str(), want.c_str());
        }
      }
    }
  }
  return mismatches;
}

struct ThroughputResult {
  size_t completed = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// `num_clients` connections pipeline pre-encoded Recommend frames in
/// fixed windows for `seconds`, then one unary sweep for percentiles.
ThroughputResult RunThroughput(uint16_t port, size_t num_clients,
                               double seconds,
                               const std::vector<std::string>& frames) {
  ThroughputResult result;
  std::atomic<size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (size_t c = 0; c < num_clients; ++c) {
    workers.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", port, 30000).ok()) return;
      constexpr size_t kWindow = 16;
      size_t cursor = (c * 37) % frames.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::string batch;
        for (size_t i = 0; i < kWindow; ++i) {
          batch += frames[cursor];
          cursor = (cursor + 1) % frames.size();
        }
        if (!client.SendRaw(batch).ok()) return;
        for (size_t i = 0; i < kWindow; ++i) {
          if (!client.ReceiveFrame().ok()) return;
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto begin = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - begin).count();
  result.completed = completed.load();
  result.qps = elapsed > 0 ? result.completed / elapsed : 0;

  Client probe;
  if (probe.Connect("127.0.0.1", port, 30000).ok()) {
    std::vector<double> latencies;
    const size_t sweep = std::min<size_t>(frames.size(), 300);
    latencies.reserve(sweep);
    for (size_t i = 0; i < sweep; ++i) {
      const auto q0 = Clock::now();
      if (!probe.SendRaw(frames[i]).ok()) break;
      if (!probe.ReceiveFrame().ok()) break;
      latencies.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - q0)
              .count());
    }
    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
      result.p50_us = latencies[latencies.size() / 2];
      result.p99_us = latencies[latencies.size() * 99 / 100];
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_cluster.json";
  int connect_port = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect_port = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  const bool scaling_enforced = connect_port <= 0 && cores >= 4;

  std::printf("cluster scaling bench: scatter-gather front end over 1..4 "
              "shards%s\n",
              quick ? " (--quick)" : "");
  std::printf("building demo world and training the single-node "
              "reference...\n");
  qatk::datagen::DomainWorld world(qatk::server::DemoWorldConfig());
  qatk::server::DemoSplit split = qatk::server::GenerateDemoSplit(world);
  RecommendationService reference(&world.taxonomy(), {});
  reference.Train(split.train).Abort();
  const std::vector<qatk::kb::DataBundle> probes = BuildProbes(split.heldout);
  const std::vector<std::string> frames = EncodeReplayFrames(split.heldout);
  std::printf("trained on %zu bundles; replaying %zu probes (%zu held-out "
              "+ %zu unknown-part)\n",
              split.train.bundles.size(), probes.size(), split.heldout.size(),
              probes.size() - split.heldout.size());

  std::string text;
  qatk::benchutil::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench").Value("cluster_scaling");
  json.Key("commit").Value(QATK_GIT_COMMIT);
  json.Key("build_type").Value(QATK_BUILD_TYPE);
  json.Key("quick").Value(quick);
  json.Key("cores").Value(static_cast<uint64_t>(cores));
  json.Key("scaling_enforced").Value(scaling_enforced);
  json.Key("train_bundles").Value(split.train.bundles.size());
  json.Key("heldout_bundles").Value(split.heldout.size());
  json.Key("probes").Value(probes.size());

  bool failed = false;

  if (connect_port > 0) {
    // External cluster (check.sh stage): equivalence + one throughput
    // sample against the running front end.
    std::printf("equivalence vs external cluster front end on port %d...\n",
                connect_port);
    const size_t mismatches = RunEquivalence(
        static_cast<uint16_t>(connect_port), reference, probes);
    std::printf("equivalence: %zu probes, %zu mismatches\n", probes.size(),
                mismatches);
    ThroughputResult r = RunThroughput(static_cast<uint16_t>(connect_port), 2,
                                       quick ? 1.0 : 2.0, frames);
    std::printf("external: %.0f qps (p50 %.0fus, p99 %.0fus)\n", r.qps,
                r.p50_us, r.p99_us);
    json.Key("external").BeginObject();
    json.Key("mismatches").Value(static_cast<uint64_t>(mismatches));
    json.Key("qps").Value(r.qps, 1);
    json.Key("p50_us").Value(r.p50_us, 2);
    json.Key("p99_us").Value(r.p99_us, 2);
    json.EndObject();
    if (mismatches > 0 || r.completed == 0) failed = true;
  } else {
    const double seconds = quick ? 1.0 : 2.5;
    double qps1 = 0;
    double prev_qps = 0;
    bool monotone = true;
    json.Key("configs").BeginArray();
    for (uint32_t n = 1; n <= 4; ++n) {
      auto cluster =
          BuildCluster(&world, split.train, n, /*front_threads=*/4);
      if (cluster == nullptr) {
        std::fprintf(stderr, "FAIL: could not build %u-shard cluster\n", n);
        failed = true;
        break;
      }
      const uint16_t port = cluster->front->port();
      const size_t mismatches = RunEquivalence(port, reference, probes);
      const size_t clients = 4;
      ThroughputResult r = RunThroughput(port, clients, seconds, frames);
      std::printf("shards=%u: %zu mismatches, %.0f qps (p50 %.0fus, p99 "
                  "%.0fus)\n",
                  n, mismatches, r.qps, r.p50_us, r.p99_us);
      json.BeginObject();
      json.Key("shards").Value(static_cast<uint64_t>(n));
      json.Key("sharder").Value("hash");
      json.Key("mismatches").Value(static_cast<uint64_t>(mismatches));
      json.Key("qps").Value(r.qps, 1);
      json.Key("p50_us").Value(r.p50_us, 2);
      json.Key("p99_us").Value(r.p99_us, 2);
      json.EndObject();
      if (mismatches > 0 || r.completed == 0) failed = true;
      if (n == 1) qps1 = r.qps;
      // Monotone within a per-step jitter tolerance: adding a shard must
      // never make the cluster meaningfully slower.
      constexpr double kStepTolerance = 0.95;
      if (prev_qps > 0 && r.qps < prev_qps * kStepTolerance) {
        std::fprintf(stderr,
                     "%s: qps falls at %u shards (%.0f -> %.0f q/s)\n",
                     scaling_enforced ? "FAIL" : "note", n, prev_qps, r.qps);
        monotone = false;
      }
      prev_qps = r.qps;
    }
    json.EndArray();
    const double scaling = qps1 > 0 ? prev_qps / qps1 : 0;
    json.Key("scaling_1_to_4").Value(scaling, 2);
    std::printf("shard scaling 1->4: %.2fx (%u cores)\n", scaling, cores);
    if (scaling_enforced) {
      if (!monotone) failed = true;
    } else {
      json.Key("scaling_skipped_reason")
          .Value("host has " + std::to_string(cores) +
                 " cores; gate needs >= 4");
      std::fprintf(stderr,
                   "SKIPPED: shard-scaling gate (host has %u cores, needs "
                   ">= 4); the scaling table is informational only\n",
                   cores);
    }
  }

  json.EndObject();
  json.Finish();
  if (qatk::benchutil::WriteFile(out_path.c_str(), text)) {
    std::printf("machine-readable results written to %s\n",
                out_path.c_str());
  }
  if (failed) {
    std::fprintf(stderr, "FAIL: cluster scaling gate\n");
    return 1;
  }
  std::printf("OK: cluster responses bit-identical to single node at every "
              "shard count\n");
  return 0;
}
