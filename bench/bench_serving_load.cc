// Serving-load bench for the epoll recommendation server: replays
// held-out bundles over real TCP connections against a trained
// RecommendationService and measures end-to-end qps and latency
// percentiles, thread scaling, admission-control shedding, graceful-drain
// latency, and survival under injected socket faults.
//
// Before timing anything it proves correctness: every held-out bundle is
// sent over the wire and the response must be BIT-IDENTICAL to
// re-encoding a direct in-process Recommend() on the same bundle (doubles
// cross the wire as %.17g text, which round-trips exactly).
//
// Emits machine-readable BENCH_serving.json, stamped with the commit and
// build type it measured (read when CMake configures the tree). Exit
// status is the gate used by scripts/check.sh: nonzero on any equivalence
// mismatch, dropped request during drain, shed-accounting mismatch,
// fault-schedule crash, or (only when this host has >= 4 cores) 1->4
// thread scaling below 2.4x —
// on smaller hosts the scaling ratio is reported but not enforced,
// because event-loop threads cannot beat physics.
//
// Usage: bench_serving_load [--quick] [--out=BENCH_serving.json]
//                           [--connect=PORT]
//
// --connect=PORT skips the in-process server phases and runs the
// equivalence sweep against an already-running qatk_serve on 127.0.0.1
// (both sides train the same deterministic demo corpus, so responses
// still match bit-for-bit). Used by the check.sh serve stage.

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
#include "common/fault.h"
#include "datagen/world.h"
#include "quest/recommendation_service.h"
#include "server/client.h"
#include "server/demo_corpus.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using qatk::server::Client;
using qatk::server::Json;
using qatk::server::Server;

struct Percentiles {
  double p50_us = 0;
  double p99_us = 0;
};

Percentiles ComputePercentiles(std::vector<double>* latencies) {
  Percentiles result;
  if (latencies->empty()) return result;
  std::sort(latencies->begin(), latencies->end());
  result.p50_us = (*latencies)[latencies->size() / 2];
  result.p99_us = (*latencies)[latencies->size() * 99 / 100];
  return result;
}

/// Pre-framed Recommend requests for the replay set (encoding cost paid
/// once, outside every timed region).
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

/// Phase 1: every held-out bundle over the wire vs in-process, compared
/// on the serialized result. Returns the number of mismatches.
size_t RunEquivalence(uint16_t port,
                      const qatk::quest::RecommendationService& service,
                      const std::vector<qatk::kb::DataBundle>& bundles) {
  Client client;
  qatk::Status connected = client.Connect("127.0.0.1", port, 30000);
  if (!connected.ok()) {
    std::fprintf(stderr, "equivalence connect failed: %s\n",
                 connected.ToString().c_str());
    return bundles.size();
  }
  size_t mismatches = 0;
  // Pipeline in windows: correctness does not need unary round trips,
  // and windows keep the phase fast on one core.
  constexpr size_t kWindow = 32;
  for (size_t base = 0; base < bundles.size(); base += kWindow) {
    const size_t count = std::min(kWindow, bundles.size() - base);
    for (size_t i = 0; i < count; ++i) {
      auto sent = client.Send(static_cast<int64_t>(base + i), "Recommend",
                              qatk::server::BundleToParams(bundles[base + i]));
      if (!sent.ok()) return mismatches + (bundles.size() - base);
    }
    for (size_t i = 0; i < count; ++i) {
      auto response = client.Receive();
      if (!response.ok()) {
        std::fprintf(stderr, "receive failed: %s\n",
                     response.status().ToString().c_str());
        return mismatches + (bundles.size() - base - i);
      }
      const qatk::kb::DataBundle& bundle = bundles[base + i];
      auto direct = service.Recommend(bundle);
      const std::string wire_result = response->result.Dump();
      const std::string direct_result =
          direct.ok() ? qatk::server::RecommendationToJson(*direct).Dump()
                      : "null";
      if (response->ok() != direct.ok() ||
          (direct.ok() && wire_result != direct_result)) {
        if (++mismatches <= 3) {
          std::fprintf(stderr,
                       "MISMATCH bundle %zu:\n  wire:   %s\n  direct: %s\n",
                       base + i, wire_result.c_str(), direct_result.c_str());
        }
      }
    }
  }
  return mismatches;
}

/// One reading of the server's own view of Recommend traffic, taken over
/// the wire through both observability surfaces (Stats JSON and the
/// Prometheus text exposition), so the two can be cross-checked.
struct MetricsProbe {
  bool ok = false;
  uint64_t stats_count = 0;     ///< Stats methods.Recommend.count
  uint64_t stats_executed = 0;  ///< Stats methods.Recommend.executed
  uint64_t text_count = 0;      ///< MetricsText ..._count{method="Recommend"}
};

MetricsProbe ProbeMetrics(Client* client, int64_t* next_id) {
  MetricsProbe probe;
  auto stats = client->Call((*next_id)++, "Stats", Json::Object());
  if (!stats.ok() || !stats->ok()) return probe;
  const Json* methods = stats->result.Find("methods");
  const Json* recommend =
      methods != nullptr ? methods->Find("Recommend") : nullptr;
  if (recommend == nullptr) return probe;
  probe.stats_count = static_cast<uint64_t>(recommend->GetInt("count"));
  probe.stats_executed =
      static_cast<uint64_t>(recommend->GetInt("executed"));
  auto text = client->Call((*next_id)++, "MetricsText", Json::Object());
  if (!text.ok() || !text->ok()) return probe;
  const std::string exposition = text->result.GetString("text");
  const std::string needle =
      "qatk_server_request_us_count{method=\"Recommend\"} ";
  const size_t pos = exposition.find(needle);
  if (pos == std::string::npos ||
      (pos != 0 && exposition[pos - 1] != '\n')) {
    return probe;
  }
  probe.text_count =
      std::strtoull(exposition.c_str() + pos + needle.size(), nullptr, 10);
  probe.ok = true;
  return probe;
}

struct MetricsGateResult {
  size_t sent = 0;
  size_t answered = 0;
  uint64_t stats_count_delta = 0;
  uint64_t stats_executed_delta = 0;
  uint64_t text_count_delta = 0;
  bool cross_checked = false;  ///< MetricsText count == Stats executed.
  bool consistent = false;
};

/// Metrics-consistency gate: probe the server's counters, push a known
/// number of Recommend requests through, probe again. Every delta — the
/// per-method request counter, the latency-histogram total in Stats, and
/// the same histogram rendered through MetricsText — must equal the
/// client-side tally exactly (no shed/deadline traffic on this
/// connection, so parsed == executed). The probes ride the same
/// connection as the load, so in-order response delivery guarantees the
/// "after" probe runs once every Recommend has been dispatched.
MetricsGateResult RunMetricsConsistency(
    uint16_t port, const std::vector<std::string>& frames) {
  MetricsGateResult result;
  Client client;
  if (!client.Connect("127.0.0.1", port, 30000).ok()) return result;
  int64_t probe_id = int64_t{1} << 20;
  const MetricsProbe before = ProbeMetrics(&client, &probe_id);
  if (!before.ok) return result;
  const size_t count = std::min<size_t>(frames.size(), 256);
  constexpr size_t kWindow = 32;
  for (size_t base = 0; base < count; base += kWindow) {
    const size_t n = std::min(kWindow, count - base);
    std::string batch;
    for (size_t i = 0; i < n; ++i) batch += frames[base + i];
    if (!client.SendRaw(batch).ok()) return result;
    result.sent += n;
    for (size_t i = 0; i < n; ++i) {
      if (!client.ReceiveFrame().ok()) return result;
      ++result.answered;
    }
  }
  const MetricsProbe after = ProbeMetrics(&client, &probe_id);
  if (!after.ok) return result;
  result.stats_count_delta = after.stats_count - before.stats_count;
  result.stats_executed_delta = after.stats_executed - before.stats_executed;
  result.text_count_delta = after.text_count - before.text_count;
  result.cross_checked = after.text_count == after.stats_executed;
  result.consistent = result.answered == result.sent &&
                      result.stats_count_delta == result.sent &&
                      result.stats_executed_delta == result.sent &&
                      result.text_count_delta == result.sent &&
                      result.cross_checked;
  return result;
}

struct ThroughputResult {
  size_t threads = 0;
  size_t clients = 0;
  size_t completed = 0;
  double qps = 0;
  Percentiles latency;
};

/// Phase 2: `num_clients` connections pipeline pre-encoded Recommend
/// frames in fixed windows for `seconds`; counts completed responses
/// (frames, not parsed — parsing is client-side cost, not server load).
/// Then one unary-latency sweep on a fresh connection.
ThroughputResult RunThroughput(uint16_t port, size_t server_threads,
                               size_t num_clients, double seconds,
                               const std::vector<std::string>& frames) {
  ThroughputResult result;
  result.threads = server_threads;
  result.clients = num_clients;
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
        size_t sent = 0;
        std::string batch;
        for (; sent < kWindow; ++sent) {
          batch += frames[cursor];
          cursor = (cursor + 1) % frames.size();
        }
        if (!client.SendRaw(batch).ok()) return;
        for (size_t i = 0; i < sent; ++i) {
          auto frame = client.ReceiveFrame();
          if (!frame.ok()) return;
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

  // Unary latency sweep (sequential round trips, timed individually).
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
    result.latency = ComputePercentiles(&latencies);
  }
  return result;
}

struct ShedResult {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t other = 0;
};

/// Phase 3: one client pipelines a deep window at a server whose
/// admission cap is 1. Inline batch execution means request 1 is admitted
/// and flushed only after the whole batch is processed, so the rest must
/// shed with kUnavailable — deterministically.
ShedResult RunShed(qatk::quest::RecommendationService* service,
                   const std::vector<std::string>& frames) {
  ShedResult result;
  Server::Options options;
  options.max_in_flight = 1;
  Server server(service, options);
  if (!server.Start().ok()) return result;
  Client client;
  if (!client.Connect("127.0.0.1", server.port(), 30000).ok()) return result;
  constexpr size_t kDeepWindow = 64;
  std::string batch;
  for (size_t i = 0; i < kDeepWindow && i < frames.size(); ++i) {
    batch += frames[i];
    ++result.sent;
  }
  if (!client.SendRaw(batch).ok()) return result;
  for (size_t i = 0; i < result.sent; ++i) {
    auto response = client.Receive();
    if (!response.ok()) break;
    if (response->ok()) {
      ++result.ok;
    } else if (response->code == qatk::StatusCode::kUnavailable) {
      ++result.shed;
    } else {
      ++result.other;
    }
  }
  client.Close();
  server.Drain().Abort();
  return result;
}

struct DrainResult {
  size_t requests = 0;
  size_t answered = 0;
  uint64_t dropped = 0;
  double latency_ms = 0;
  bool clean = false;
};

/// Phase 4: requests are pipelined, drain is requested, and every one of
/// them must still be answered; measures RequestDrain -> Wait latency.
DrainResult RunDrain(qatk::quest::RecommendationService* service,
                     const std::vector<std::string>& frames) {
  DrainResult result;
  Server::Options options;
  Server server(service, options);
  if (!server.Start().ok()) return result;
  Client client;
  if (!client.Connect("127.0.0.1", server.port(), 30000).ok()) return result;
  const size_t count = std::min<size_t>(frames.size(), 64);
  std::string batch;
  for (size_t i = 0; i < count; ++i) batch += frames[i];
  if (!client.SendRaw(batch).ok()) return result;
  result.requests = count;
  // SendRaw only guarantees the bytes left the client; the drain contract
  // covers what the server has *received*. Wait for the byte counter so
  // the cutoff provably lands after all requests.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (server.stats().bytes_read < batch.size() &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = Clock::now();
  server.RequestDrain();
  std::thread reader([&] {
    for (size_t i = 0; i < count; ++i) {
      auto response = client.Receive();
      if (!response.ok()) break;
      if (response->ok()) ++result.answered;
    }
  });
  const bool wait_ok = server.Wait().ok();
  result.latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  reader.join();
  result.dropped = server.stats().drain_dropped;
  result.clean = wait_ok && result.dropped == 0 &&
                 result.answered == result.requests;
  return result;
}

/// Phase 5: fault schedules against a dedicated server each. The
/// invariant: the client sees a complete response or a closed connection
/// (never a half frame surfaced as success), and the server survives to
/// drain cleanly.
size_t RunFaultSchedules(qatk::quest::RecommendationService* service,
                         const std::vector<std::string>& frames,
                         size_t* survived) {
  using qatk::Fault;
  using qatk::FaultInjector;
  using qatk::FaultKind;
  std::vector<std::vector<Fault>> schedules = {
      // EAGAIN storm on reads.
      {{"server.read", 0, FaultKind::kTransient, 0},
       {"server.read", 0, FaultKind::kTransient, 0},
       {"server.read", 1, FaultKind::kTransient, 0}},
      // EAGAIN storm on writes.
      {{"server.write", 0, FaultKind::kTransient, 0},
       {"server.write", 0, FaultKind::kTransient, 0}},
      // Mid-frame disconnects at varying offsets.
      {{"server.read", 1, FaultKind::kTorn, 0.25}},
      {{"server.read", 3, FaultKind::kTorn, 0.75}},
      // Torn writes mid-response.
      {{"server.write", 1, FaultKind::kTorn, 0.5}},
      {{"server.write", 2, FaultKind::kTorn, 0.1}},
      // Accept hiccup then a permanent read error.
      {{"server.accept", 0, FaultKind::kTransient, 0},
       {"server.read", 2, FaultKind::kPermanent, 0}},
  };
  *survived = 0;
  for (const auto& schedule : schedules) {
    FaultInjector fault(schedule);
    Server::Options options;
    options.fault = &fault;
    Server server(service, options);
    if (!server.Start().ok()) continue;
    bool violated = false;
    // Two connections, several unary attempts each: every attempt must
    // end in a parseable full response or a clean socket error.
    for (int conn = 0; conn < 2 && !violated; ++conn) {
      Client client;
      if (!client.Connect("127.0.0.1", server.port(), 5000).ok()) continue;
      for (size_t i = 0; i < 6; ++i) {
        if (!client.SendRaw(frames[i % frames.size()]).ok()) break;
        auto response = client.Receive();
        if (!response.ok()) break;  // Closed/torn: allowed, keep schedule.
        // A surfaced response must be complete and well-formed: the id
        // echoes the request and the code parsed.
        if (response->id != static_cast<int64_t>(i % frames.size())) {
          violated = true;
          break;
        }
      }
    }
    if (!server.Drain().ok()) violated = true;
    if (!violated) ++(*survived);
  }
  return schedules.size();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serving.json";
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

  std::printf("building demo world and training (shared with qatk_serve)...\n");
  qatk::datagen::DomainWorld world(qatk::server::DemoWorldConfig());
  qatk::server::DemoSplit split = qatk::server::GenerateDemoSplit(world);
  qatk::quest::RecommendationService service(&world.taxonomy(), {});
  service.Train(split.train).Abort();
  std::printf("trained on %zu bundles, replaying %zu held-out bundles\n",
              split.train.bundles.size(), split.heldout.size());

  const std::vector<std::string> frames = EncodeReplayFrames(split.heldout);

  std::string text;
  qatk::benchutil::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench").Value("serving_load");
  json.Key("commit").Value(QATK_GIT_COMMIT);
  json.Key("build_type").Value(QATK_BUILD_TYPE);
  json.Key("quick").Value(quick);
  json.Key("cores").Value(static_cast<uint64_t>(cores));
  json.Key("train_bundles").Value(split.train.bundles.size());
  json.Key("heldout_bundles").Value(split.heldout.size());

  bool failed = false;

  // ---- Phase 1: wire equivalence ----------------------------------------
  size_t mismatches = 0;
  if (connect_port > 0) {
    std::printf("equivalence vs external server on port %d...\n",
                connect_port);
    mismatches = RunEquivalence(static_cast<uint16_t>(connect_port), service,
                                split.heldout);
  } else {
    Server::Options options;
    Server server(&service, options);
    server.Start().Abort();
    std::printf("equivalence vs in-process server on port %u...\n",
                server.port());
    mismatches = RunEquivalence(server.port(), service, split.heldout);
    server.Drain().Abort();
  }
  std::printf("equivalence: %zu bundles, %zu mismatches\n",
              split.heldout.size(), mismatches);
  json.Key("equivalence").BeginObject();
  json.Key("bundles").Value(split.heldout.size());
  json.Key("mismatches").Value(static_cast<uint64_t>(mismatches));
  json.EndObject();
  if (mismatches > 0) failed = true;

  // ---- Phase 1b: metrics consistency ------------------------------------
#ifndef QATK_NO_METRICS
  MetricsGateResult metrics;
  if (connect_port > 0) {
    metrics = RunMetricsConsistency(static_cast<uint16_t>(connect_port),
                                    frames);
  } else {
    Server::Options options;
    Server server(&service, options);
    server.Start().Abort();
    metrics = RunMetricsConsistency(server.port(), frames);
    server.Drain().Abort();
  }
  std::printf("metrics: sent=%zu stats_count=+%llu stats_executed=+%llu "
              "text_count=+%llu cross_checked=%s -> %s\n",
              metrics.sent,
              static_cast<unsigned long long>(metrics.stats_count_delta),
              static_cast<unsigned long long>(metrics.stats_executed_delta),
              static_cast<unsigned long long>(metrics.text_count_delta),
              metrics.cross_checked ? "yes" : "no",
              metrics.consistent ? "consistent" : "INCONSISTENT");
  json.Key("metrics").BeginObject();
  json.Key("sent").Value(metrics.sent);
  json.Key("answered").Value(metrics.answered);
  json.Key("stats_count_delta").Value(metrics.stats_count_delta);
  json.Key("stats_executed_delta").Value(metrics.stats_executed_delta);
  json.Key("text_count_delta").Value(metrics.text_count_delta);
  json.Key("cross_checked").Value(metrics.cross_checked);
  json.Key("consistent").Value(metrics.consistent);
  json.EndObject();
  if (!metrics.consistent) {
    std::fprintf(stderr, "FAIL: server metrics disagree with client tally\n");
    failed = true;
  }
#else
  json.Key("metrics").BeginObject();
  json.Key("skipped").Value(true);
  json.EndObject();
#endif

  // ---- Phase 2: throughput & scaling ------------------------------------
  const double seconds = quick ? 1.0 : 3.0;
  double qps1 = 0;
  double qps4 = 0;
  json.Key("throughput").BeginArray();
  if (connect_port > 0) {
    // External server: one sweep at its configured thread count.
    ThroughputResult r = RunThroughput(static_cast<uint16_t>(connect_port),
                                       0, 2, seconds, frames);
    std::printf("external: %.0f qps (p50 %.0fus, p99 %.0fus)\n", r.qps,
                r.latency.p50_us, r.latency.p99_us);
    json.BeginObject();
    json.Key("threads").Value("external");
    json.Key("clients").Value(r.clients);
    json.Key("qps").Value(r.qps, 1);
    json.Key("p50_us").Value(r.latency.p50_us, 2);
    json.Key("p99_us").Value(r.latency.p99_us, 2);
    json.EndObject();
    if (r.completed == 0) failed = true;
  } else {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      Server::Options options;
      options.threads = threads;
      Server server(&service, options);
      server.Start().Abort();
      const size_t clients = std::max<size_t>(threads * 2, 2);
      ThroughputResult r =
          RunThroughput(server.port(), threads, clients, seconds, frames);
      server.Drain().Abort();
      std::printf(
          "threads=%zu clients=%zu: %.0f qps (p50 %.0fus, p99 %.0fus)\n",
          threads, clients, r.qps, r.latency.p50_us, r.latency.p99_us);
      json.BeginObject();
      json.Key("threads").Value(threads);
      json.Key("clients").Value(clients);
      json.Key("qps").Value(r.qps, 1);
      json.Key("p50_us").Value(r.latency.p50_us, 2);
      json.Key("p99_us").Value(r.latency.p99_us, 2);
      json.EndObject();
      if (threads == 1) qps1 = r.qps;
      if (threads == 4) qps4 = r.qps;
      if (r.completed == 0) failed = true;
    }
  }
  json.EndArray();
  if (connect_port <= 0) {
    // Gate: >= 0.6x of linear for the 1->4 sweep (2.4x), enforced only
    // where 4 loop threads can actually run in parallel. On smaller hosts
    // the ratio is still reported, but an explicit SKIPPED notice (and a
    // scaling_skipped_reason in the JSON) makes the unenforced run
    // impossible to mistake for a measured multi-core result.
    const double scaling = qps1 > 0 ? qps4 / qps1 : 0;
    const double required = 2.4;  // 0.6 x linear on 4 cores.
    const bool enforced = cores >= 4;
    json.Key("scaling_1_to_4").Value(scaling, 2);
    json.Key("scaling_required").Value(required, 2);
    json.Key("scaling_enforced").Value(enforced);
    if (!enforced) {
      json.Key("scaling_skipped_reason")
          .Value("host has " + std::to_string(cores) +
                 " cores; gate needs >= 4");
    }
    std::printf("scaling 1->4 threads: %.2fx (%u cores)\n", scaling, cores);
    if (enforced) {
      if (scaling < required) {
        std::fprintf(stderr,
                     "FAIL: 1->4 scaling %.2fx below required %.2fx on %u "
                     "cores\n",
                     scaling, required, cores);
        failed = true;
      }
    } else {
      std::fprintf(stderr,
                   "SKIPPED: 1->4 scaling gate (host has %u cores, needs "
                   ">= 4); ratio %.2fx is informational only\n",
                   cores, scaling);
    }
  }

  // ---- Phases 3-5 run only with an in-process server --------------------
  if (connect_port <= 0) {
    ShedResult shed = RunShed(&service, frames);
    std::printf("shed: sent=%zu ok=%zu shed=%zu other=%zu\n", shed.sent,
                shed.ok, shed.shed, shed.other);
    json.Key("shed").BeginObject();
    json.Key("sent").Value(shed.sent);
    json.Key("ok").Value(shed.ok);
    json.Key("shed").Value(shed.shed);
    json.Key("shed_rate").Value(
        shed.sent > 0 ? static_cast<double>(shed.shed) / shed.sent : 0, 3);
    json.EndObject();
    // All answered; with cap 1 and one deep batch, exactly one admitted.
    if (shed.ok + shed.shed != shed.sent || shed.shed == 0) failed = true;

    DrainResult drain = RunDrain(&service, frames);
    std::printf("drain: %zu requests, %zu answered, %llu dropped, "
                "%.1fms drain latency\n",
                drain.requests, drain.answered,
                static_cast<unsigned long long>(drain.dropped),
                drain.latency_ms);
    json.Key("drain").BeginObject();
    json.Key("requests").Value(drain.requests);
    json.Key("answered").Value(drain.answered);
    json.Key("dropped").Value(drain.dropped);
    json.Key("latency_ms").Value(drain.latency_ms, 2);
    json.EndObject();
    if (!drain.clean) {
      std::fprintf(stderr, "FAIL: drain dropped in-flight work\n");
      failed = true;
    }

    size_t survived = 0;
    const size_t schedules = RunFaultSchedules(&service, frames, &survived);
    std::printf("fault schedules: %zu/%zu survived cleanly\n", survived,
                schedules);
    json.Key("faults").BeginObject();
    json.Key("schedules").Value(schedules);
    json.Key("survived").Value(survived);
    json.EndObject();
    if (survived != schedules) failed = true;
  }

  json.EndObject();
  json.Finish();
  if (qatk::benchutil::WriteFile(out_path.c_str(), text)) {
    std::printf("machine-readable results written to %s\n",
                out_path.c_str());
  }
  if (failed) {
    std::fprintf(stderr, "FAIL: serving bench gate\n");
    return 1;
  }
  std::printf("OK: wire responses bit-identical; backpressure and drain "
              "behave\n");
  return 0;
}
