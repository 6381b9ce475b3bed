// Loopback end-to-end tests for the epoll serving subsystem: protocol
// round trips over real sockets, pipelining, admission control, deadlines,
// graceful drain, idle/slow-client policing, and fault-injection schedules
// (EAGAIN storms, mid-frame disconnects, torn writes). Run under TSan by
// scripts/check.sh: the concurrent tests double as the data-race harness.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "obs/metrics.h"
#include "quest/recommendation_service.h"
#include "quest/service_log.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace qatk::server {
namespace {

datagen::WorldConfig TinyWorld() {
  datagen::WorldConfig config;
  config.num_parts = 6;
  config.num_article_codes = 40;
  config.num_error_codes = 80;
  config.max_codes_largest_part = 25;
  config.mid_part_min_codes = 8;
  config.mid_part_max_codes = 20;
  config.small_parts = 2;
  config.num_components = 80;
  config.num_symptoms = 70;
  config.num_locations = 20;
  config.num_solutions = 20;
  config.components_per_part = 6;
  return config;
}

/// World + trained service shared by every test (training is the slow
/// part; the service is immutable-after-train and thread-safe to read).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new datagen::DomainWorld(TinyWorld());
    datagen::OemConfig oem;
    oem.num_bundles = 600;
    datagen::OemCorpusGenerator generator(world_, oem);
    corpus_ = new kb::Corpus(generator.Generate());
    service_ = new quest::RecommendationService(
        &world_->taxonomy(), quest::RecommendationService::Options{});
    ASSERT_TRUE(service_->Train(*corpus_).ok());
  }

  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  /// Starts a server on an ephemeral port and connects a client to it.
  void Start(Server::Options options = {}) {
    options.port = 0;
    server_ = std::make_unique<Server>(service_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  static datagen::DomainWorld* world_;
  static kb::Corpus* corpus_;
  static quest::RecommendationService* service_;

  std::unique_ptr<Server> server_;
  Client client_;
};

datagen::DomainWorld* ServerTest::world_ = nullptr;
kb::Corpus* ServerTest::corpus_ = nullptr;
quest::RecommendationService* ServerTest::service_ = nullptr;

TEST_F(ServerTest, HealthAndStats) {
  Start();
  auto health = client_.Call(1, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->ok()) << health->message;
  EXPECT_TRUE(health->result.GetBool("trained", false));
  EXPECT_FALSE(health->result.GetBool("draining", true));

  auto stats = client_.Call(2, "Stats", Json::Object());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->result.GetInt("requests", -1), 1);
  EXPECT_EQ(stats->result.GetInt("shed", -1), 0);
  EXPECT_EQ(stats->result.GetInt("drain_dropped", -1), 0);
  // Per-method breakdown: the Health call above must already be counted.
  const Json* methods = stats->result.Find("methods");
  ASSERT_NE(methods, nullptr);
  const Json* health_row = methods->Find("Health");
  ASSERT_NE(health_row, nullptr);
  EXPECT_GE(health_row->GetInt("count", -1), 1);
}

TEST_F(ServerTest, MetricsTextExposesServerSeries) {
#ifdef QATK_NO_METRICS
  GTEST_SKIP() << "metrics compiled out (QATK_NO_METRICS)";
#else
  Start();
  // A Recommend first, so its histogram has at least one sample.
  auto response = client_.Call(1, "Recommend",
                               BundleToParams(corpus_->bundles[0]));
  ASSERT_TRUE(response.ok()) << response.status();
  auto metrics = client_.Call(2, "MetricsText", Json::Object());
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_TRUE(metrics->ok()) << metrics->message;
  const std::string text = metrics->result.GetString("text");
  EXPECT_NE(text.find("# TYPE qatk_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("qatk_server_requests_total{method=\"Recommend\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("qatk_server_request_us_bucket{method=\"Recommend\",le="),
      std::string::npos);
  EXPECT_NE(text.find("qatk_server_request_us_count{method=\"Recommend\"}"),
            std::string::npos);
#endif
}

TEST_F(ServerTest, WireResponsesBitIdenticalToInProcess) {
  Start();
  size_t compared = 0;
  for (size_t i = 0; i < corpus_->bundles.size(); i += 11) {
    const kb::DataBundle& bundle = corpus_->bundles[i];
    auto wire = client_.Call(static_cast<int64_t>(i), "Recommend",
                             BundleToParams(bundle));
    ASSERT_TRUE(wire.ok()) << wire.status();
    auto direct = service_->Recommend(bundle);
    ASSERT_EQ(wire->ok(), direct.ok());
    if (direct.ok()) {
      // Scores cross the wire as 17-digit text; the comparison is on
      // the serialized form, which is bit-exact iff the doubles are.
      EXPECT_EQ(wire->result.Dump(), RecommendationToJson(*direct).Dump())
          << "bundle " << i;
    }
    ++compared;
  }
  EXPECT_GT(compared, 50u);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  Start();
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) {
    Json params = Json::Object();
    params.Set("part_id", Json("P01"));
    ASSERT_TRUE(client_.Send(i, "FullListForPart", params).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    auto response = client_.Receive();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, i);  // Responses arrive in request order.
    EXPECT_TRUE(response->ok());
  }
}

TEST_F(ServerTest, ShedsBeyondMaxInFlight) {
  Server::Options options;
  options.max_in_flight = 0;  // Admit nothing: every request sheds.
  Start(options);
  auto response = client_.Call(1, "Recommend",
                               BundleToParams(corpus_->bundles[0]));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kUnavailable);
  EXPECT_NE(response->message.find("capacity"), std::string::npos);
  // Health/Stats bypass admission control (they cost nothing).
  auto health = client_.Call(2, "Health", Json::Object());
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ok());
  EXPECT_GE(server_->stats().shed, 1u);
}

TEST_F(ServerTest, ExpiredDeadlineAnsweredWithoutExecuting) {
  Start();
  auto response = client_.Call(7, "Recommend",
                               BundleToParams(corpus_->bundles[0]),
                               /*deadline_ms=*/0);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server_->stats().deadline_exceeded, 1u);
  // A generous deadline passes untouched.
  auto fine = client_.Call(8, "Recommend",
                           BundleToParams(corpus_->bundles[0]),
                           /*deadline_ms=*/60000);
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(fine->ok()) << fine->message;
}

TEST_F(ServerTest, MalformedJsonAnsweredAndConnectionSurvives) {
  Start();
  std::string wire;
  AppendFrame("this is not json", &wire);
  ASSERT_TRUE(client_.SendRaw(wire).ok());
  auto error = client_.Receive();
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, StatusCode::kInvalid);
  // The framing was intact, so the connection keeps working.
  auto health = client_.Call(2, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->ok());
}

TEST_F(ServerTest, UnknownMethodAnswered) {
  Start();
  auto response = client_.Call(3, "Frobnicate", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kInvalid);
  EXPECT_NE(response->message.find("Frobnicate"), std::string::npos);
}

TEST_F(ServerTest, OversizedFramePrefixAnsweredThenClosed) {
  Start();
  // 16 MiB announcement against the 1 MiB default cap; no payload needed.
  const char prefix[] = {'\x01', '\x00', '\x00', '\x00'};
  ASSERT_TRUE(client_.SendRaw(std::string_view(prefix, 4)).ok());
  auto error = client_.Receive();
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, StatusCode::kInvalid);
  // Framing is unrecoverable: the server closes after the error.
  auto next = client_.Receive();
  EXPECT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsIOError()) << next.status();
}

TEST_F(ServerTest, IdleConnectionsSweptAfterTimeout) {
  Server::Options options;
  options.idle_timeout_ms = 100;
  Start(options);
  // Do nothing; the sweep closes us and a read sees EOF.
  auto response = client_.Receive();
  EXPECT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsIOError()) << response.status();
}

TEST_F(ServerTest, ActiveConnectionIsNeverSwept) {
  Server::Options options;
  options.idle_timeout_ms = 250;
  Start(options);
  // A request every 20 ms for five idle timeouts: every sweep that runs in
  // this window must find the connection active.
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1250);
  int64_t id = 0;
  while (std::chrono::steady_clock::now() < end) {
    auto response = client_.Call(id, "Recommend",
                                 BundleToParams(corpus_->bundles[id % 100]));
    ASSERT_TRUE(response.ok()) << "request " << id << ": "
                               << response.status();
    EXPECT_EQ(response->id, id);
    ++id;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server_->stats().closed, 0u);
  // Once the client falls silent, the sweep closes it.
  auto eof = client_.Receive();
  EXPECT_FALSE(eof.ok());
}

TEST_F(ServerTest, GracefulDrainAnswersEverythingReceived) {
  Start();
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        client_.Send(i, "Recommend",
                     BundleToParams(corpus_->bundles[i % 100])).ok());
  }
  // Send() returning only means the bytes left the client. The drain
  // contract covers requests the server has received, so wait for the
  // request counter before placing the cutoff.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().requests <
             static_cast<uint64_t>(kRequests) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestDrain();
  for (int i = 0; i < kRequests; ++i) {
    auto response = client_.Receive();
    ASSERT_TRUE(response.ok()) << "request " << i << ": "
                               << response.status();
    EXPECT_EQ(response->id, i);
    EXPECT_TRUE(response->ok()) << response->message;
  }
  // After the answers, the server closes the connection.
  auto eof = client_.Receive();
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(server_->Wait().ok());
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.drain_dropped, 0u);
  EXPECT_EQ(stats.responses_ok, static_cast<uint64_t>(kRequests));
}

TEST_F(ServerTest, ForcedDrainAccountsDroppedResponsesExactlyOnce) {
  // A response force-closed at the drain timeout must count as dropped
  // and NOT also as answered: the regression here was drain_dropped and
  // responses_ok both counting the same request. The invariant checked
  // at the end makes the tallies mutually exclusive and exhaustive.
  Server::Options options;
  options.drain_timeout_ms = 150;
  options.port = 0;
  // No shedding: past max_in_flight the server answers with tiny error
  // responses, and those all fit in kernel socket buffers — making the
  // drain look clean. Full-size responses are what pile up unflushed.
  options.max_in_flight = 1u << 20;
  // Keep the slow-client cutoff out of the way: that path closes the
  // connection before the drain timeout can account for it.
  options.max_write_buffer = 64u << 20;
  server_ = std::make_unique<Server>(service_, options);
  ASSERT_TRUE(server_->Start().ok());

  // Raw socket with a tiny receive buffer, set before connect so the
  // advertised TCP window stays small: the server can flush only a few
  // responses into kernel buffers; the rest must still be queued
  // (unflushed) when the drain timeout fires.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Enough response volume that it cannot all hide in kernel socket
  // buffers (TCP auto-tunes the send buffer up to ~4 MiB): most responses
  // must still be queued app-side when the timeout fires. FullListForPart
  // is cheap to execute but returns the part's whole ranked code list
  // (~1 KiB), so 16384 of them is ~12 MiB of responses — well past the
  // sndbuf ceiling, well under the raised write-buffer cutoff.
  constexpr int kRequests = 16384;
  Json full_list_params = Json::Object();
  full_list_params.Set("part_id", Json("P01"));
  std::string batch;
  for (int i = 0; i < kRequests; ++i) {
    AppendFrame(EncodeRequest(i, "FullListForPart", full_list_params),
                &batch);
  }
  // Non-blocking push with retry: the server keeps reading while it
  // processes, so EAGAIN here is transient; a hard error ends the push
  // and the invariant is checked over whatever got through.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t sent_bytes = 0;
  while (sent_bytes < batch.size() &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::send(fd, batch.data() + sent_bytes,
                             batch.size() - sent_bytes, MSG_DONTWAIT);
    if (n > 0) {
      sent_bytes += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else {
      break;
    }
  }
  ASSERT_GT(sent_bytes, 0u);

  // Let the server settle: the parsed-request counter must hold still
  // across two polls before the cutoff, so the drain sees a stable set.
  uint64_t last_requests = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const uint64_t now = server_->stats().requests;
    if (now > 0 && now == last_requests) break;
    last_requests = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

#ifndef QATK_NO_METRICS
  const uint64_t obs_dropped_before =
      obs::Registry::Global()
          .GetCounter("qatk_server_drain_dropped_total")
          ->Value();
#endif
  server_->RequestDrain();
  const Status drained = server_->Wait();
  const ServerStats stats = server_->stats();
  ::close(fd);

  // The client never read, so the timeout must have force-closed the
  // connection with responses still queued.
  EXPECT_GT(stats.drain_dropped, 0u);
  EXPECT_FALSE(drained.ok()) << "drain should report the dropped responses";
  // Mutually exclusive and exhaustive: every parsed request is answered
  // OK, answered with an error, or dropped — never two of those.
  EXPECT_EQ(stats.requests,
            stats.responses_ok + stats.responses_error + stats.drain_dropped);
#ifndef QATK_NO_METRICS
  const uint64_t obs_dropped_after =
      obs::Registry::Global()
          .GetCounter("qatk_server_drain_dropped_total")
          ->Value();
  EXPECT_EQ(obs_dropped_after - obs_dropped_before, stats.drain_dropped);
#endif
}

TEST_F(ServerTest, DrainRefusesNewConnections) {
  // Every loop closes its own listener on drain. At 4 loops the late
  // connects are repeated 32 times: the kernel spreads them over the
  // listeners still open, so one left open by any loop takes them.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Server::Options options;
    options.threads = threads;
    Start(options);
    server_->RequestDrain();
    EXPECT_TRUE(server_->Wait().ok());
    const int late_connects = threads == 1 ? 1 : 32;
    int connected = 0;
    for (int i = 0; i < late_connects; ++i) {
      Client late;
      if (!late.Connect("127.0.0.1", server_->port(), /*timeout_ms=*/500)
               .ok()) {
        continue;
      }
      // Only a TCP self-connect onto the freed ephemeral port gets here
      // when every listener is closed; the socket must be dead either way.
      ++connected;
      EXPECT_FALSE(late.Call(1, "Health", Json::Object()).ok());
    }
    EXPECT_LE(connected, 1);
  }
}

/// Open file descriptors of this process, ascending.
std::vector<int> OpenFds() {
  std::vector<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  const int own = ::dirfd(dir);
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd != own) fds.push_back(fd);
  }
  ::closedir(dir);
  std::sort(fds.begin(), fds.end());
  return fds;
}

TEST_F(ServerTest, FixedPortIsRefusedWhileAnotherServerHoldsIt) {
  // Every listener sets SO_REUSEPORT, so without the plain-bind check a
  // second server would join the first one's port group and the kernel
  // would split new connections between the two.
  Start();
  Server::Options options;
  options.port = server_->port();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    Server second(service_, options);
    const Status started = second.Start();
    EXPECT_TRUE(started.IsIOError()) << started;
    EXPECT_NE(started.message().find("port in use"), std::string::npos)
        << started;
  }
  // The first server keeps answering, on its old connection and new ones.
  auto health = client_.Call(1, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->ok());
  for (int i = 0; i < 8; ++i) {
    Client other;
    ASSERT_TRUE(other.Connect("127.0.0.1", server_->port()).ok());
    auto answer = other.Call(i, "Health", Json::Object());
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->ok());
  }
  // Once the first server has drained, the port is free again: the
  // drained server closed its connections first, and its side of each
  // sits in TIME_WAIT on the port, which must not count as "in use".
  ASSERT_TRUE(server_->Drain().ok());
  client_.Close();
  server_ = std::make_unique<Server>(service_, options);
  const Status restarted = server_->Start();
  ASSERT_TRUE(restarted.ok()) << restarted;
  ASSERT_TRUE(client_.Connect("127.0.0.1", options.port).ok());
  auto again = client_.Call(9, "Health", Json::Object());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->ok());
}

TEST_F(ServerTest, StartFailsOnAPortHeldWithoutReusePort) {
  // A plain listener (no SO_REUSEPORT) owns the port; no listener of ours
  // can share it, so Start must fail, and a Server that never started
  // must destroy without hanging and without keeping an fd open.
  const int holder = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 8), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<int> fds_before = OpenFds();
    {
      Server::Options options;
      options.port = ntohs(addr.sin_port);
      options.threads = threads;
      Server server(service_, options);
      const Status started = server.Start();
      EXPECT_TRUE(started.IsIOError()) << started;
    }
    EXPECT_EQ(OpenFds(), fds_before);
  }
  ::close(holder);
}

TEST_F(ServerTest, StartFailingAtALaterLoopClosesEveryFd) {
  // Each loop opens a listener, an epoll instance and an eventfd. With
  // room for exactly seven more descriptors, loops 0 and 1 set up fully
  // and loop 2 fails right after its listener: Start fails with fds open
  // on three loops, and destroying the Server must close all of them.
  const std::vector<int> fds_before = OpenFds();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // The smallest limit with exactly seven free descriptor numbers below it.
  rlim_t limit = 0;
  for (;; ++limit) {
    const auto below = static_cast<rlim_t>(
        std::lower_bound(fds_before.begin(), fds_before.end(),
                         static_cast<int>(limit)) -
        fds_before.begin());
    if (limit - below == 7) break;
  }
  ASSERT_LE(limit, saved.rlim_cur);
  rlimit tight = saved;
  tight.rlim_cur = limit;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  Status started;
  {
    Server::Options options;  // Port 0: no port check, no extra fd.
    options.threads = 4;
    Server server(service_, options);
    started = server.Start();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_TRUE(started.IsIOError()) << started;
  EXPECT_EQ(OpenFds(), fds_before);
}

TEST_F(ServerTest, ConcurrentClientsAcrossTwoLoops) {
  Server::Options options;
  options.threads = 2;
  Start(options);
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &failures] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(100);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const kb::DataBundle& bundle =
            corpus_->bundles[(c * kPerClient + i) % corpus_->bundles.size()];
        auto response =
            client.Call(i, "Recommend", BundleToParams(bundle));
        if (!response.ok() || !response->ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.responses_ok, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kClients) + 1);
}

// ---------------------------------------------------------------------------
// Fault-injection schedules. Each test owns a fresh injector + server
// (threads=1 keeps "the Nth read" deterministic). The invariant under any
// schedule: the client observes either a complete response or a closed
// connection — never a half frame presented as success, and the server
// neither crashes nor wedges.
//
// The injector lives on the test-body stack while server_ belongs to the
// fixture, so each test must tear the server down (server_.reset() drains
// it, consulting the injector one last time) before the injector dies.

TEST_F(ServerTest, TransientReadFaultIsRetriedTransparently) {
  FaultInjector fault;
  // An EAGAIN storm: the next three reads fail transiently.
  fault.AddFault({"server.read", 0, FaultKind::kTransient, 0});
  fault.AddFault({"server.read", 0, FaultKind::kTransient, 0});
  fault.AddFault({"server.read", 0, FaultKind::kTransient, 0});
  Server::Options options;
  options.fault = &fault;
  Start(options);
  auto response = client_.Call(1, "Health", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok());
  EXPECT_GE(server_->stats().read_faults, 3u);
  server_.reset();
}

TEST_F(ServerTest, MidFrameDisconnectNeverAnswersHalfRequest) {
  FaultInjector fault;
  fault.AddFault({"server.read", 0, FaultKind::kTorn, 0.3});
  Server::Options options;
  options.fault = &fault;
  Start(options);
  ASSERT_TRUE(
      client_.Send(1, "Recommend", BundleToParams(corpus_->bundles[0]))
          .ok());
  // The server read a torn prefix and closed. Whatever we observe must
  // be a clean close, not a fabricated success.
  auto response = client_.Receive();
  if (response.ok()) {
    // A complete frame arrived before the fault hit: it must parse as a
    // full, well-formed response.
    EXPECT_EQ(response->id, 1);
  } else {
    EXPECT_TRUE(response.status().IsIOError()) << response.status();
  }
  EXPECT_FALSE(client_.Call(2, "Health", Json::Object()).ok());
  server_.reset();
}

TEST_F(ServerTest, TornWriteClosesMidFrameCleanly) {
  FaultInjector fault;
  fault.AddFault({"server.write", 0, FaultKind::kTorn, 0.5});
  Server::Options options;
  options.fault = &fault;
  Start(options);
  ASSERT_TRUE(client_.Send(1, "Health", Json::Object()).ok());
  // The response is torn on the way out; the client-side framing layer
  // must refuse to surface the partial payload.
  auto response = client_.Receive();
  EXPECT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsIOError()) << response.status();
  EXPECT_GE(server_->stats().write_faults, 1u);
  server_.reset();
}

TEST_F(ServerTest, PermanentReadFaultClosesConnection) {
  FaultInjector fault;
  fault.AddFault({"server.read", 0, FaultKind::kPermanent, 0});
  Server::Options options;
  options.fault = &fault;
  Start(options);
  ASSERT_TRUE(client_.Send(1, "Health", Json::Object()).ok());
  auto response = client_.Receive();
  EXPECT_FALSE(response.ok());
  // The server survives to serve new connections.
  Client again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server_->port()).ok());
  auto health = again.Call(1, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->ok());
  server_.reset();
}

TEST_F(ServerTest, ClientRetriesThroughShedding) {
  // Deliberately shedding server: one admission slot, a tiny send buffer
  // so a pipelining-but-not-reading hog client pins that slot with its
  // unflushed responses. Every other request sheds with kUnavailable
  // until the hog goes away — exactly the condition CallWithRetry's
  // jittered exponential backoff is for.
  Server::Options options;
  options.max_in_flight = 1;
  options.sndbuf_bytes = 4096;
  options.max_write_buffer = 64u << 20;  // Keep slow-client cutoff away.
  Start(options);

  Client hog;
  ASSERT_TRUE(
      hog.Connect("127.0.0.1", server_->port(), /*timeout_ms=*/5000,
                  /*rcvbuf_bytes=*/4096)
          .ok());
  Json params = Json::Object();
  params.Set("part_id", Json("P01"));
  // The hog keeps pipelining until told to stop. Early admitted responses
  // sit near the front of the write queue and still flush through the
  // shrunken buffers; with a continuous stream, an admitted response
  // eventually lands beyond everything the kernel will ever accept from a
  // non-reading peer — and from then on the slot is pinned permanently
  // (only CloseConn can release it).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::atomic<bool> stop_hog{false};
  std::atomic<int> hog_sent{0};
  std::thread hog_sender([&] {
    int i = 0;
    while (!stop_hog.load(std::memory_order_acquire)) {
      if (!hog.Send(i, "FullListForPart", params).ok()) break;
      hog_sent.store(++i, std::memory_order_release);
      if (i % 16 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  // The pin is reached when the executed-request tally freezes while the
  // shed tally still moves: no admissions happened across two polls, so
  // the one slot stayed held the whole time.
  uint64_t last_ok = ~0ull;
  int stable_polls = 0;
  while (stable_polls < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ServerStats stats = server_->stats();
    if (stats.responses_ok == last_ok && stats.shed > 0) {
      ++stable_polls;
    } else {
      stable_polls = 0;
      last_ok = stats.responses_ok;
    }
  }
  stop_hog.store(true, std::memory_order_release);
  hog_sender.join();
  ASSERT_GE(stable_polls, 2) << "hog failed to pin the slot";
  // Drain the parser: once every sent hog request has been parsed (each
  // now shedding against the pinned slot), the shed counter only moves
  // for the retrying client below.
  while (server_->stats().requests <
             static_cast<uint64_t>(hog_sent.load()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server_->stats().requests,
            static_cast<uint64_t>(hog_sent.load()));
  const uint64_t baseline_shed = server_->stats().shed;
  ASSERT_GT(baseline_shed, 0u);

  RetryPolicy::Options retry;
  retry.max_attempts = 200;
  retry.base_backoff = std::chrono::microseconds(500);
  retry.jitter = 0.5;
  retry.seed = 42;
  client_.set_retry_policy(RetryPolicy(retry));

  // Any shed beyond the baseline is the retrying client's (the hog sent
  // everything it ever will): only then is the hog drained away, so the
  // client must observe at least one shed attempt before succeeding.
  std::thread unblocker([&] {
    while (server_->stats().shed <= baseline_shed &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    hog.Close();
  });
  int attempts = 0;
  auto response =
      client_.CallWithRetry(999, "FullListForPart", params,
                            /*deadline_ms=*/-1, &attempts);
  unblocker.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok()) << response->message;
  EXPECT_GT(attempts, 1) << "the first attempt must have been shed";
  EXPECT_LT(attempts, retry.max_attempts)
      << "success must come from the freed slot, not budget exhaustion";
}

TEST(ClientTest, MoveKeepsTheRetryPolicy) {
  // The coordinator arms a channel's policy, then moves the channel
  // through its pool: a move that reset the policy would retry every
  // shard RPC under the default budget instead.
  RetryPolicy::Options retry;
  retry.max_attempts = 7;
  retry.base_backoff = std::chrono::microseconds(300);
  Client armed;
  armed.set_retry_policy(RetryPolicy(retry));
  Client moved(std::move(armed));
  EXPECT_EQ(moved.retry_policy().options().max_attempts, 7);
  Client assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.retry_policy().options().max_attempts, 7);
  EXPECT_EQ(assigned.retry_policy().options().base_backoff.count(), 300);
}

TEST_F(ServerTest, DrainPersistsAcknowledgedConfirms) {
  // A durable service behind the server: every ConfirmAssignment answered
  // OK over the wire must still exist after the data dir is reopened —
  // the ack happened only after the service-log fsync, and the graceful
  // drain must not lose any of it.
  const std::string dir = ::testing::TempDir() + "/server_drain_durable";
  std::remove(quest::ServiceLogPath(dir).c_str());
  std::remove(quest::ServiceSnapshotPath(dir).c_str());
  auto durable = quest::RecommendationService::Open(
      &world_->taxonomy(), quest::RecommendationService::Options{}, dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE(durable.ValueOrDie()->Train(*corpus_).ok());

  Server::Options options;
  options.port = 0;
  server_ = std::make_unique<Server>(durable.ValueOrDie().get(), options);
  ASSERT_TRUE(server_->Start().ok());
  ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());

  auto health = client_.Call(0, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->result.GetBool("durable", false));

  // A few synchronous confirms, then a pipelined burst that the drain cuts
  // into: whatever subset comes back OK is the acknowledged set.
  constexpr int kSyncConfirms = 3;
  constexpr int kPipelined = 5;
  uint64_t acked = 0;
  for (int i = 0; i < kSyncConfirms; ++i) {
    const kb::DataBundle& bundle = corpus_->bundles[i];
    Json params = BundleToParams(bundle);
    params.Set("error_code", Json(bundle.error_code));
    auto response = client_.Call(i + 1, "ConfirmAssignment", params);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok()) << response->message;
    ++acked;
  }
  for (int i = 0; i < kPipelined; ++i) {
    const kb::DataBundle& bundle = corpus_->bundles[kSyncConfirms + i];
    Json params = BundleToParams(bundle);
    params.Set("error_code", Json(bundle.error_code));
    ASSERT_TRUE(
        client_.Send(100 + i, "ConfirmAssignment", params).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().requests <
             static_cast<uint64_t>(1 + kSyncConfirms + kPipelined) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestDrain();
  for (int i = 0; i < kPipelined; ++i) {
    auto response = client_.Receive();
    ASSERT_TRUE(response.ok()) << "pipelined confirm " << i << ": "
                               << response.status();
    if (response->ok()) ++acked;
  }
  EXPECT_TRUE(server_->Wait().ok());
  EXPECT_EQ(server_->stats().drain_dropped, 0u);
  // lsn 1 is the Train; each acked confirm advanced it by exactly one.
  EXPECT_EQ(durable.ValueOrDie()->durability().last_lsn, 1 + acked);
  server_.reset();
  durable.ValueOrDie().reset();  // Crash-style close: no checkpoint.

  auto reopened = quest::RecommendationService::Open(
      &world_->taxonomy(), quest::RecommendationService::Options{}, dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const auto stats = reopened.ValueOrDie()->durability();
  EXPECT_TRUE(reopened.ValueOrDie()->trained());
  EXPECT_EQ(stats.replayed_records, 1 + acked)
      << "every wire-acknowledged confirm must replay";
  EXPECT_EQ(stats.last_lsn, 1 + acked);
  std::remove(quest::ServiceLogPath(dir).c_str());
  std::remove(quest::ServiceSnapshotPath(dir).c_str());
}

TEST_F(ServerTest, AcceptFaultDelaysButDoesNotLoseConnections) {
  FaultInjector fault;
  fault.AddFault({"server.accept", 0, FaultKind::kTransient, 0});
  Server::Options options;
  options.fault = &fault;
  Start(options);  // Connect() itself rides through the accept fault.
  auto response = client_.Call(1, "Health", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok());
  server_.reset();
}

TEST_F(ServerTest, UnpipelinedRequestCostsOneReadAndOneWrite) {
  // An injector with no faults only counts the server's read(2) and
  // write(2) calls. A request that arrives alone is taken in one read: a
  // short read ends the read round rather than reading again for an
  // EAGAIN. Its response leaves in one write.
  FaultInjector counter;
  Server::Options options;
  options.fault = &counter;
  Start(options);
  constexpr uint64_t kRequests = 20;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = client_.Call(static_cast<int64_t>(i), "Recommend",
                                 BundleToParams(corpus_->bundles[i]));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, static_cast<int64_t>(i));
  }
  // Tearing the server down joins its loops, so the counts are final. The
  // drain's last pull on the still-open connection is one more read.
  server_.reset();
  EXPECT_EQ(counter.op_counts().at("server.read"), kRequests + 1);
  EXPECT_EQ(counter.op_counts().at("server.write"), kRequests);
}

}  // namespace
}  // namespace qatk::server
