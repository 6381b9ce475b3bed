// Coordinated-omission test for the open-loop driver.
//
// A fake RequestHandler -- the server's public seam -- sits behind a real
// one-loop Server. It answers at once, except for one request, on which it
// stalls for a known time. The driver offers a fixed Poisson rate over one
// connection, so the server handles requests in schedule order and the
// stalled request is known. Every request that fell due while the server
// was stuck must report latency from its due time, i.e. at least the part
// of the stall still ahead of it, and the generator must keep sending on
// schedule throughout.
//
// Usage: open_loop_test    (exit status 0 when every check holds)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "open_loop.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using qatk::loadbench::Arrival;

constexpr double kRateQps = 2000;
constexpr double kSeconds = 1.0;
constexpr uint32_t kStallAt = 400;
constexpr int64_t kStallNs = 200'000'000;
/// The generator may run this late at p99 while the server is stuck.
constexpr double kMaxLagP99Us = 25000;

class StallOnceHandler : public qatk::server::RequestHandler {
 public:
  qatk::server::Response Handle(
      const qatk::server::Request& request) override {
    if (handled_.fetch_add(1) == kStallAt) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kStallNs));
    }
    qatk::server::Response response;
    response.id = request.id;
    response.result = qatk::server::Json::Object();
    return response;
  }

 private:
  std::atomic<uint32_t> handled_{0};
};

bool Expect(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok:  " : "FAIL:", what);
  return condition;
}

}  // namespace

int main() {
  StallOnceHandler handler;
  qatk::server::Server::Options options;
  options.threads = 1;
  qatk::server::Server server(&handler, options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  qatk::loadbench::OpenLoopDriver driver;
  if (!driver.Connect(server.port(), 1).ok()) {
    std::fprintf(stderr, "driver failed to connect\n");
    return 1;
  }
  std::string frame;
  qatk::server::AppendFrame(
      qatk::server::EncodeRequest(7, "Recommend", qatk::server::Json::Object()),
      &frame);
  const std::vector<std::string> frames = {frame};
  qatk::Rng rng(20160315);
  const std::vector<Arrival> schedule =
      qatk::loadbench::PoissonSchedule(kRateQps, kSeconds, {0}, 1, &rng);
  const qatk::loadbench::RunResult run = driver.Run(
      frames, schedule,
      [](uint32_t, std::string_view payload) {
        return payload.starts_with(R"({"id":7,"code":"OK")");
      },
      /*drain_seconds=*/5);

  bool pass = Expect(schedule.size() > kStallAt + 100,
                     "the schedule runs well past the stall");
  pass &= Expect(run.failed == 0, "every request is answered");
  // The stall cannot start before the stalled request is due, so a request
  // due `into` ns later cannot be answered sooner than kStallNs - into
  // after its own due time.
  size_t during = 0;
  size_t charged = 0;
  if (schedule.size() > kStallAt) {
    const int64_t stall_due = schedule[kStallAt].due_ns;
    for (size_t i = kStallAt; i < schedule.size(); ++i) {
      const int64_t into = schedule[i].due_ns - stall_due;
      if (into >= kStallNs) break;
      ++during;
      if (run.latency_ns[i] >= kStallNs - into) ++charged;
    }
  }
  std::printf("%zu requests fell due during the stall, %zu were charged "
              "the rest of it\n",
              during, charged);
  pass &= Expect(during >= kRateQps * kStallNs / 1e9 / 2,
                 "the stall delays the expected number of requests");
  pass &= Expect(charged == during,
                 "each of them reports latency from its due time");
  std::vector<double> lag_us;
  lag_us.reserve(run.lag_ns.size());
  for (const int64_t lag : run.lag_ns) lag_us.push_back(lag / 1e3);
  const double lag_p99_us = qatk::loadbench::Quantile(&lag_us, 0.99);
  std::printf("driver.lag_p99_us %.1f\n", lag_p99_us);
  pass &= Expect(lag_p99_us <= kMaxLagP99Us,
                 "the generator keeps its schedule while the server stalls");
  pass &= Expect(server.Drain().ok(), "the server drains cleanly");
  std::printf("%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
