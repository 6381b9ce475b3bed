// Exact allocation gate for the serving path of a Recommend. The binary
// replaces the global operator new with one that counts every allocation,
// per thread and process-wide, so each stage of a request can be measured
// exactly: the counts repeat on every run and every host, unlike a timing.
//
// After a warm-up pass over the same seeded frames (which grows every
// reused buffer to its working size), the gate asserts, per request, for
// known-part and unknown-part (all-nodes fallback) Recommend frames:
//   * 0 allocations in DecodeRequestInto, RecommendInto and
//     EncodeRecommendResponseTo, the direct path the server runs;
//   * 0 allocations on the event-loop thread of a real Server, over a
//     loopback socket;
//   * at most the committed ceilings for the legacy ParseRequest, Dispatch
//     and EncodeResponseTo calls that clients and benches still use.
// The ceilings only ratchet down. It also prints a per-stage ns table
// (legacy vs direct), which is not gated.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <new>
#include <string>
#include <vector>

#include "datagen/oem.h"
#include "datagen/world.h"
#include "quest/recommendation_service.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The default nothrow forms forward to these, so they are counted too.
void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qatk::server {
namespace {

// Committed per-request ceilings of the legacy calls, the most any one
// frame of the seeded sets below costs. Lower them when the code gets
// cheaper; never raise them.
constexpr uint64_t kParseRequestCeiling = 9;
constexpr uint64_t kDispatchCeiling = 16;
constexpr uint64_t kEncodeResponseCeiling = 0;

/// Allocations `fn` makes on the calling thread.
template <typename Fn>
uint64_t Allocations(Fn&& fn) {
  const uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

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

/// One seeded Recommend request and the response bytes the tree encoder
/// gives it.
struct Probe {
  int64_t id = 0;
  std::string payload;
  std::string expected;
};

/// Per-stage allocation tallies over one pass.
struct StageCounts {
  uint64_t max = 0;
  uint64_t total = 0;
  void Add(uint64_t n) {
    max = std::max(max, n);
    total += n;
  }
};

class AllocGateTest : public ::testing::Test {
 protected:
  static constexpr size_t kTrain = 500;

  static void SetUpTestSuite() {
    world_ = new datagen::DomainWorld(TinyWorld());
    datagen::OemConfig oem;
    oem.seed = 23;
    oem.num_bundles = 600;
    datagen::OemCorpusGenerator generator(world_, oem);
    kb::Corpus corpus = generator.Generate();
    std::vector<kb::DataBundle> heldout(corpus.bundles.begin() + kTrain,
                                        corpus.bundles.end());
    corpus.bundles.resize(kTrain);
    service_ = new quest::RecommendationService(
        &world_->taxonomy(), quest::RecommendationService::Options{});
    ASSERT_TRUE(service_->Train(corpus).ok());
    known_ = new std::vector<Probe>();
    unknown_ = new std::vector<Probe>();
    for (size_t i = 0; i < heldout.size(); ++i) {
      kb::DataBundle probe = heldout[i];
      probe.error_code.clear();
      probe.final_oem_report.clear();
      known_->push_back(MakeProbe(static_cast<int64_t>(i), probe));
      probe.part_id = "ZZ-UNKNOWN-" + std::to_string(i);
      unknown_->push_back(MakeProbe(static_cast<int64_t>(1000 + i), probe));
    }
  }

  static void TearDownTestSuite() {
    delete known_;
    delete unknown_;
    delete service_;
    delete world_;
  }

  static Probe MakeProbe(int64_t id, const kb::DataBundle& bundle) {
    Probe probe;
    probe.id = id;
    probe.payload = EncodeRequest(id, "Recommend", BundleToParams(bundle));
    auto recommendation = service_->Recommend(bundle);
    QATK_CHECK(recommendation.ok()) << recommendation.status();
    probe.expected = EncodeResponse(id, Status::OK(),
                                    RecommendationToJson(*recommendation));
    return probe;
  }

  /// Runs every stage, legacy and direct, on each probe: a warm-up pass
  /// when `counts` is null, else a measured one.
  void RunStages(const std::vector<Probe>& probes, StageCounts counts[6]) {
    for (const Probe& probe : probes) {
      uint64_t n[6];
      n[0] = Allocations([&] {
        ASSERT_TRUE(DecodeRequestInto(probe.payload, &request_, &bundle_).ok());
      });
      n[1] = Allocations([&] {
        ASSERT_TRUE(service_->RecommendInto(bundle_, &recommendation_).ok());
      });
      direct_.clear();
      n[2] = Allocations([&] {
        EncodeRecommendResponseTo(request_.id, recommendation_, &direct_);
      });
      Result<Request> parsed = Status::Invalid("unset");
      n[3] = Allocations([&] { parsed = ParseRequest(probe.payload); });
      ASSERT_TRUE(parsed.ok());
      Response response;
      n[4] = Allocations([&] { response = Dispatch(service_, *parsed); });
      ASSERT_TRUE(response.ok()) << response.message;
      legacy_.clear();
      n[5] = Allocations([&] {
        EncodeResponseTo(response.id, Status(response.code, response.message),
                         response.result, &legacy_);
      });
      ASSERT_EQ(direct_, probe.expected);
      ASSERT_EQ(legacy_, probe.expected);
      if (counts != nullptr) {
        for (int s = 0; s < 6; ++s) counts[s].Add(n[s]);
      }
    }
  }

  void CheckStages(const std::vector<Probe>& probes, const char* label) {
    RunStages(probes, nullptr);
    StageCounts counts[6];
    RunStages(probes, counts);
    const char* names[6] = {"DecodeRequestInto", "RecommendInto",
                            "EncodeRecommendResponseTo", "ParseRequest",
                            "Dispatch", "EncodeResponseTo"};
    for (int s = 0; s < 6; ++s) {
      std::printf("[alloc] %-8s %-26s max %3llu  mean %6.2f per request\n",
                  label, names[s], static_cast<unsigned long long>(counts[s].max),
                  static_cast<double>(counts[s].total) /
                      static_cast<double>(probes.size()));
    }
    EXPECT_EQ(counts[0].max, 0u) << label << " DecodeRequestInto";
    EXPECT_EQ(counts[1].max, 0u) << label << " RecommendInto";
    EXPECT_EQ(counts[2].max, 0u) << label << " EncodeRecommendResponseTo";
    EXPECT_LE(counts[3].max, kParseRequestCeiling) << label;
    EXPECT_LE(counts[4].max, kDispatchCeiling) << label;
    EXPECT_LE(counts[5].max, kEncodeResponseCeiling) << label;
  }

  static datagen::DomainWorld* world_;
  static quest::RecommendationService* service_;
  static std::vector<Probe>* known_;
  static std::vector<Probe>* unknown_;

  Request request_;
  kb::DataBundle bundle_;
  quest::RecommendationService::Recommendation recommendation_;
  std::string direct_;
  std::string legacy_;
};

datagen::DomainWorld* AllocGateTest::world_ = nullptr;
quest::RecommendationService* AllocGateTest::service_ = nullptr;
std::vector<Probe>* AllocGateTest::known_ = nullptr;
std::vector<Probe>* AllocGateTest::unknown_ = nullptr;

TEST_F(AllocGateTest, KnownPartStagesAllocateNothing) {
  CheckStages(*known_, "known");
}

TEST_F(AllocGateTest, UnknownPartStagesAllocateNothing) {
  CheckStages(*unknown_, "unknown");
}

/// A blocking loopback client that reuses one receive buffer.
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    frame_.reserve(1 << 16);
    payload_.reserve(1 << 16);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  /// Sends one request and reads its response payload into payload().
  bool Call(std::string_view request) {
    frame_.clear();
    AppendFrame(request, &frame_);
    for (size_t sent = 0; sent < frame_.size();) {
      const ssize_t n = ::write(fd_, frame_.data() + sent, frame_.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    unsigned char prefix[kLengthPrefixBytes];
    if (!ReadExact(reinterpret_cast<char*>(prefix), sizeof(prefix))) {
      return false;
    }
    const size_t len = (size_t{prefix[0]} << 24) | (size_t{prefix[1]} << 16) |
                       (size_t{prefix[2]} << 8) | size_t{prefix[3]};
    if (len > payload_.capacity()) return false;  // Would allocate.
    payload_.resize(len);
    return ReadExact(payload_.data(), len);
  }

  const std::string& payload() const { return payload_; }

 private:
  bool ReadExact(char* out, size_t len) {
    for (size_t got = 0; got < len;) {
      const ssize_t n = ::read(fd_, out + got, len - got);
      if (n <= 0) return false;
      got += static_cast<size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string frame_;
  std::string payload_;
};

TEST_F(AllocGateTest, EventLoopThreadAllocatesNothingOverASocket) {
  Server::Options options;
  options.port = 0;
  options.threads = 1;
  Server server(service_, options);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (const std::vector<Probe>* probes : {known_, unknown_}) {
    // Warm-up on the same connection: the loop's and the connection's
    // buffers reach their working size.
    for (const Probe& probe : *probes) {
      ASSERT_TRUE(client.Call(probe.payload));
      ASSERT_EQ(client.payload(), probe.expected);
    }
    // This thread is the only other one running: the process-wide count
    // minus its own is the event-loop thread's. Every allocation a request
    // makes on the loop comes before its response is written, so the
    // count read after the last response covers every request.
    const uint64_t process_before = g_allocations.load();
    const uint64_t own_before = t_allocations;
    size_t mismatches = 0;
    for (const Probe& probe : *probes) {
      if (!client.Call(probe.payload) || client.payload() != probe.expected) {
        ++mismatches;
      }
    }
    const uint64_t loop_allocations = (g_allocations.load() - process_before) -
                                      (t_allocations - own_before);
    std::printf("[alloc] %-8s event-loop thread         total %llu over %zu "
                "requests\n",
                probes == known_ ? "known" : "unknown",
                static_cast<unsigned long long>(loop_allocations),
                probes->size());
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(loop_allocations, 0u);
  }
  ASSERT_TRUE(server.Drain().ok());
}

/// Mean ns per request of `fn` over `reps` passes of `probes`.
template <typename Fn>
double NsPerRequest(const std::vector<Probe>& probes, int reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const Probe& probe : probes) fn(probe);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(reps * probes.size());
}

// Not a gate: prints what each stage costs on the legacy path and on the
// direct one, the per-stage evidence for the allocation work.
TEST_F(AllocGateTest, PrintsPerStageTimings) {
  std::vector<Probe> probes = *known_;
  probes.insert(probes.end(), unknown_->begin(), unknown_->end());
  constexpr int kReps = 5;
  std::vector<kb::DataBundle> bundles;
  std::vector<quest::RecommendationService::Recommendation> results;
  for (const Probe& probe : probes) {
    auto parsed = ParseRequest(probe.payload);
    ASSERT_TRUE(parsed.ok());
    bundles.push_back(BundleFromParams(parsed->params));
    auto recommendation = service_->Recommend(bundles.back());
    ASSERT_TRUE(recommendation.ok());
    results.push_back(*recommendation);
  }
  auto index = [&](const Probe& probe) {
    return static_cast<size_t>(&probe - probes.data());
  };
  const double decode_legacy = NsPerRequest(probes, kReps, [&](const Probe& p) {
    auto parsed = ParseRequest(p.payload);
    static_cast<void>(BundleFromParams(parsed->params));
  });
  const double decode_direct = NsPerRequest(probes, kReps, [&](const Probe& p) {
    static_cast<void>(DecodeRequestInto(p.payload, &request_, &bundle_));
  });
  const double execute_legacy =
      NsPerRequest(probes, kReps, [&](const Probe& p) {
        static_cast<void>(service_->Recommend(bundles[index(p)]));
      });
  const double execute_direct =
      NsPerRequest(probes, kReps, [&](const Probe& p) {
        static_cast<void>(
            service_->RecommendInto(bundles[index(p)], &recommendation_));
      });
  const double encode_legacy = NsPerRequest(probes, kReps, [&](const Probe& p) {
    legacy_.clear();
    EncodeResponseTo(p.id, Status::OK(), RecommendationToJson(results[index(p)]),
                     &legacy_);
  });
  const double encode_direct = NsPerRequest(probes, kReps, [&](const Probe& p) {
    direct_.clear();
    EncodeRecommendResponseTo(p.id, results[index(p)], &direct_);
  });
  std::printf("[alloc] stage     legacy ns   direct ns  (not gated)\n");
  std::printf("[alloc] decode   %10.0f  %10.0f\n", decode_legacy, decode_direct);
  std::printf("[alloc] execute  %10.0f  %10.0f\n", execute_legacy,
              execute_direct);
  std::printf("[alloc] encode   %10.0f  %10.0f\n", encode_legacy, encode_direct);
}

}  // namespace
}  // namespace qatk::server
