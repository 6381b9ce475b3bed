#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qatk::server {

namespace {

using Clock = std::chrono::steady_clock;

/// The idle sweep runs at most this often per loop: scanning every
/// connection after every wakeup would make each request O(connections).
constexpr std::chrono::milliseconds kIdleSweepInterval{50};

int64_t ElapsedMs(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
      .count();
}

/// How a queued response was tallied in responses_ok/responses_error at
/// generation time. Drain-timeout force-close uses this to move an
/// undelivered response from "answered" to "dropped" without ever counting
/// it as both.
enum class Tally : uint8_t {
  kNone,   ///< Not tallied (frame-level protocol error response).
  kOk,     ///< Tallied in responses_ok.
  kError,  ///< Tallied in responses_error.
};

/// One queued response: its end offset in `enqueued_total`, whether it
/// holds an admission slot, and how it was tallied.
struct PendingResponse {
  uint64_t end = 0;
  bool admitted = false;
  Tally tally = Tally::kNone;
};

/// Queued responses in order, popped from the front as flush progress
/// passes them. A vector with a read index rather than a std::deque, which
/// frees and allocates a node as the queue cycles: this storage is reused
/// for the connection's whole life, so steady state allocates nothing.
class PendingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  const PendingResponse& front() const { return items_[head_]; }
  void push_back(const PendingResponse& pending) { items_.push_back(pending); }
  void pop_front() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }
  /// Drops the popped prefix; a stalled connection's queue may never
  /// empty, and this keeps it from growing without bound.
  void Compact() {
    items_.erase(items_.begin(), items_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  std::vector<PendingResponse>::const_iterator begin() const {
    return items_.begin() + static_cast<ptrdiff_t>(head_);
  }
  std::vector<PendingResponse>::const_iterator end() const {
    return items_.end();
  }

 private:
  std::vector<PendingResponse> items_;
  size_t head_ = 0;
};

/// One TCP connection, owned by exactly one event loop for its lifetime.
struct Conn {
  int fd = -1;
  std::string read_buf;
  /// Pending outgoing bytes; `write_off` is the already-flushed prefix
  /// (erased lazily so steady-state flushing never memmoves).
  std::string write_buf;
  size_t write_off = 0;
  /// Running byte counters over the connection lifetime, used to map
  /// flush progress onto queued responses.
  uint64_t enqueued_total = 0;
  uint64_t flushed_total = 0;
  PendingQueue pending;
  Clock::time_point last_active;
  bool want_write = false;        ///< EPOLLOUT currently armed.
  bool close_after_flush = false; ///< Fatal framing error: answer, close.
  bool read_shutdown = false;     ///< Peer EOF or drain cutoff reached.
};

}  // namespace

struct Server::Impl {
  RequestHandler* handler = nullptr;
  /// Set only by the Server(service, options) convenience ctor, with
  /// `service`: a service-backed server serves Recommend directly
  /// (HandleRequest), without the handler's Json round trip.
  std::unique_ptr<RequestHandler> owned_handler;
  quest::RecommendationService* service = nullptr;
  Options options;
  Server* self = nullptr;

  struct Loop {
    size_t index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    /// This loop's SO_REUSEPORT accept socket (-1 once drain closed it).
    /// Touched solely by the owning loop thread after Start.
    int listen_fd = -1;
    /// Batch-local response buffer: every response generated by one
    /// readable event is encoded here before being framed into the
    /// connection's write buffer, so steady-state serving performs no
    /// per-response string allocation.
    std::string response_scratch;
    /// The direct Recommend path's request, bundle and result, reused
    /// from one request to the next (their strings keep their capacity).
    Request request;
    kb::DataBundle bundle;
    quest::RecommendationService::Recommendation recommendation;
    Clock::time_point next_sweep;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::thread thread;
    bool drain_seen = false;
    Clock::time_point drain_start;
  };
  std::vector<std::unique_ptr<Loop>> loops;

  std::atomic<size_t> in_flight{0};
  /// Loops that have entered RunLoop; Start blocks until it reaches the
  /// loop count, so "Start returned" means the server is actually serving,
  /// not merely about to.
  std::atomic<size_t> loops_running{0};
  std::mutex fault_mutex;
  bool started = false;
  bool joined = false;

  // Counters (relaxed: monotone gauges, no ordering required).
  std::atomic<uint64_t> accepted{0}, closed{0}, requests{0},
      responses_ok{0}, responses_error{0}, shed{0}, deadline_exceeded{0},
      protocol_errors{0}, read_faults{0}, write_faults{0}, bytes_read{0},
      bytes_written{0}, drain_dropped{0};

  /// Per-method registry handles: `count` tallies every parsed request of
  /// the method (server-level methods included); `latency_us` records
  /// only requests actually executed through Dispatch, so its total is
  /// the executed-request count the serving bench gates on.
  struct MethodMetrics {
    obs::Counter* count = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  MethodMetrics method_metrics[kNumMethods];
  // Registry mirrors of the load-control counters above.
  obs::Counter* obs_shed = nullptr;
  obs::Counter* obs_deadline = nullptr;
  obs::Counter* obs_protocol_errors = nullptr;
  obs::Counter* obs_drain_dropped = nullptr;

  Impl() {
    obs::Registry& registry = obs::Registry::Global();
    for (size_t m = 0; m < kNumMethods; ++m) {
      const std::string name = MethodToString(static_cast<Method>(m));
      method_metrics[m].count = registry.GetCounter(
          "qatk_server_requests_total{method=\"" + name + "\"}");
      method_metrics[m].latency_us = registry.GetHistogram(
          "qatk_server_request_us{method=\"" + name + "\"}");
    }
    obs_shed = registry.GetCounter("qatk_server_shed_total");
    obs_deadline =
        registry.GetCounter("qatk_server_deadline_exceeded_total");
    obs_protocol_errors =
        registry.GetCounter("qatk_server_protocol_errors_total");
    obs_drain_dropped =
        registry.GetCounter("qatk_server_drain_dropped_total");
  }

  ~Impl() {
    for (auto& loop : loops) {
      if (loop->listen_fd >= 0) ::close(loop->listen_fd);
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    }
  }

  /// Consults the fault injector at `op`; OK when no injector is set.
  /// `crashed` distinguishes a scripted one-shot kTransient fault (retry
  /// like EAGAIN) from the injector's post-torn/post-crash state where
  /// every op fails forever — retrying those would busy-loop, so the
  /// caller must treat them as permanent.
  struct FaultDecision {
    FaultInjector::Decision decision;
    bool crashed = false;
  };
  FaultDecision FaultOn(const char* op) {
    if (options.fault == nullptr) return {};
    std::lock_guard<std::mutex> lock(fault_mutex);
    FaultDecision result;
    result.decision = options.fault->OnOp(op);
    result.crashed = options.fault->crashed();
    return result;
  }

  bool Draining() const {
    return self->drain_requested_.load(std::memory_order_acquire);
  }

  Status Start();
  Status ResolveAddress(uint16_t port, sockaddr_in* addr) const;
  Status CheckPortFree() const;
  Status OpenListener(uint16_t port, int* out_fd);
  void RunLoop(Loop* loop);
  void AcceptReady(Loop* loop);
  void Adopt(Loop* loop, int fd);
  void BeginDrain(Loop* loop);
  void DrainConn(Loop* loop, Conn* conn);
  void CloseConn(Loop* loop, Conn* conn);
  /// All Handle*/Flush helpers return false when they closed the
  /// connection (the Conn is destroyed; the caller must not touch it).
  bool HandleReadable(Loop* loop, Conn* conn);
  bool ProcessFrames(Loop* loop, Conn* conn);
  void HandleRequest(Loop* loop, Conn* conn, std::string_view payload,
                     Clock::time_point arrival);
  /// Answers a server-level method, an expired deadline or a shed request
  /// itself and returns false; true means `request` now holds an
  /// admission slot and must be executed.
  bool Admit(Loop* loop, Conn* conn, const Request& request,
             Clock::time_point arrival);
  bool FlushWrites(Loop* loop, Conn* conn);
  /// Encodes one response into the loop's scratch buffer and frames it
  /// into the connection's write queue.
  void Respond(Loop* loop, Conn* conn, int64_t id, const Status& status,
               const Json& result, bool admitted, Tally tally);
  void AppendResponse(Conn* conn, std::string_view payload, bool admitted,
                      Tally tally);
  void ArmWrite(Loop* loop, Conn* conn, bool want);
  Json HealthJson() const;
  Json StatsJson() const;
  Json MetricsTextJson() const;
};

Status Server::Impl::ResolveAddress(uint16_t port, sockaddr_in* addr) const {
  *addr = {};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr->sin_addr) != 1) {
    return Status::Invalid("cannot parse host '" + options.host + "'");
  }
  return Status::OK();
}

Status Server::Impl::CheckPortFree() const {
  // A listener with SO_REUSEPORT would join another server's port group
  // instead of failing, and the kernel would then split connections
  // between two processes. A plain bind (SO_REUSEADDR only, never
  // listening) fails while any listener holds the port; sockets left in
  // TIME_WAIT by a drained server do not block it.
  sockaddr_in addr;
  QATK_RETURN_NOT_OK(ResolveAddress(options.port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const int bind_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError(
        std::string(bind_errno == EADDRINUSE ? "port in use" : "bind failed") +
        ": " + options.host + ":" + std::to_string(options.port) + ": " +
        std::strerror(bind_errno));
  }
  return Status::OK();
}

Status Server::Impl::OpenListener(uint16_t port, int* out_fd) {
  sockaddr_in addr;
  QATK_RETURN_NOT_OK(ResolveAddress(port, &addr));
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    const Status status = Status::IOError(
        std::string("setsockopt(SO_REUSEPORT) failed: ") +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        "bind to " + options.host + ":" + std::to_string(port) +
        " failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 512) != 0) {
    ::close(fd);
    return Status::IOError("listen() failed");
  }
  *out_fd = fd;
  return Status::OK();
}

Status Server::Impl::Start() {
  const size_t num_loops = options.threads == 0 ? 1 : options.threads;
  // An ephemeral port (0) is always a fresh one and needs no check.
  if (options.port != 0) QATK_RETURN_NOT_OK(CheckPortFree());
  // One SO_REUSEPORT listener per loop, all on one port: the kernel
  // spreads connections across the loops and each accepts into itself.
  uint16_t port = options.port;
  for (size_t i = 0; i < num_loops; ++i) {
    loops.push_back(std::make_unique<Loop>());  // ~Impl owns the fds.
    Loop* raw = loops.back().get();
    raw->index = i;
    QATK_RETURN_NOT_OK(OpenListener(port, &raw->listen_fd));
    if (port == 0) {
      // Loop 0 asked for an ephemeral port; its siblings bind that one.
      sockaddr_in bound{};
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(raw->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &bound_len) != 0) {
        return Status::IOError("getsockname() failed");
      }
      port = ntohs(bound.sin_port);
    }
    raw->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (raw->epoll_fd < 0) return Status::IOError("epoll_create1 failed");
    raw->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (raw->wake_fd < 0) return Status::IOError("eventfd failed");
    for (const int fd : {raw->wake_fd, raw->listen_fd}) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(raw->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        return Status::IOError("epoll_ctl failed");
      }
    }
  }
  self->port_ = port;
  for (auto& loop : loops) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { RunLoop(raw); });
  }
  // Every listener is already bound and listening (above, synchronously),
  // so connections cannot be refused from here on; additionally wait for
  // each loop thread to be live so a port file written after Start points
  // at a server that is processing events, not just backlogging them.
  while (loops_running.load(std::memory_order_acquire) < loops.size()) {
    std::this_thread::yield();
  }
  started = true;
  QATK_LOG(INFO) << "qatk server listening on " << options.host << ":"
                 << self->port_ << " (" << num_loops
                 << " event-loop thread" << (num_loops == 1 ? "" : "s")
                 << ")";
  return Status::OK();
}

void Server::Impl::RunLoop(Loop* loop) {
  loops_running.fetch_add(1, std::memory_order_release);
  epoll_event events[64];
  for (;;) {
    if (Draining() && !loop->drain_seen) BeginDrain(loop);
    if (loop->drain_seen) {
      if (loop->conns.empty()) break;
      if (options.drain_timeout_ms > 0 &&
          ElapsedMs(loop->drain_start, Clock::now()) >
              options.drain_timeout_ms) {
        // Force close whatever is left. Each undelivered response moves
        // from "answered" to "dropped": the responses_ok/error tally it
        // received at generation time is reversed before drain_dropped
        // counts it, so the two buckets stay mutually exclusive and
        // requests == responses_ok + responses_error + drain_dropped.
        uint64_t dropped = 0, undo_ok = 0, undo_error = 0;
        while (!loop->conns.empty()) {
          Conn* conn = loop->conns.begin()->second.get();
          for (const PendingResponse& pending : conn->pending) {
            if (pending.end <= conn->flushed_total) continue;  // Delivered.
            switch (pending.tally) {
              case Tally::kOk:
                ++undo_ok;
                ++dropped;
                break;
              case Tally::kError:
                ++undo_error;
                ++dropped;
                break;
              case Tally::kNone:
                break;  // Never tallied as answered; nothing to drop.
            }
          }
          CloseConn(loop, conn);
        }
        responses_ok.fetch_sub(undo_ok, std::memory_order_relaxed);
        responses_error.fetch_sub(undo_error, std::memory_order_relaxed);
        drain_dropped.fetch_add(dropped, std::memory_order_relaxed);
        obs_drain_dropped->Add(dropped);
        if (dropped > 0) {
          QATK_LOG(ERROR) << "drain timeout: dropped " << dropped
                          << " unflushed responses";
        }
        break;
      }
    }
    const int n = ::epoll_wait(loop->epoll_fd, events, 64, /*timeout=*/50);
    if (n < 0) {
      if (errno == EINTR) continue;
      QATK_LOG(ERROR) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->wake_fd) {
        uint64_t token;
        while (::read(loop->wake_fd, &token, sizeof(token)) > 0) {
        }
        continue;
      }
      // listen_fd is loop-private after Start (BeginDrain on this loop is
      // the only writer), so this compare is single-threaded.
      if (fd == loop->listen_fd) {
        AcceptReady(loop);
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;  // Closed earlier this batch.
      Conn* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(loop, conn);
        continue;
      }
      bool alive = true;
      if ((events[i].events & EPOLLIN) != 0 && !conn->read_shutdown) {
        alive = HandleReadable(loop, conn);
      }
      if (alive && (events[i].events & EPOLLOUT) != 0) {
        FlushWrites(loop, conn);
      }
    }
    // Idle sweep, at most once per kIdleSweepInterval.
    if (options.idle_timeout_ms <= 0 || loop->conns.empty()) continue;
    const Clock::time_point now = Clock::now();
    if (now >= loop->next_sweep) {
      loop->next_sweep = now + kIdleSweepInterval;
      std::vector<Conn*> idle;
      for (auto& [fd, conn] : loop->conns) {
        if (ElapsedMs(conn->last_active, now) > options.idle_timeout_ms) {
          idle.push_back(conn.get());
        }
      }
      for (Conn* conn : idle) {
        QATK_LOG(INFO) << "closing idle connection (fd " << conn->fd << ")";
        CloseConn(loop, conn);
      }
    }
  }
}

void Server::Impl::AcceptReady(Loop* loop) {
  for (;;) {
    if (Draining()) return;
    FaultDecision fault = FaultOn("server.accept");
    if (!fault.decision.status.ok()) {
      read_faults.fetch_add(1, std::memory_order_relaxed);
      if (!fault.crashed) {
        // One-shot injected accept failure: leave the pending connection
        // in the backlog; level-triggered epoll retries next iteration.
        return;
      }
      // Post-crash the injector fails forever; drain the backlog by
      // accepting and closing, otherwise the level-triggered listener
      // event would spin.
      const int doomed = ::accept4(loop->listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (doomed < 0) return;
      ::close(doomed);
      continue;
    }
    const int fd = ::accept4(loop->listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      QATK_LOG(WARN) << "accept failed: " << std::strerror(errno);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.sndbuf_bytes,
                   sizeof(options.sndbuf_bytes));
    }
    accepted.fetch_add(1, std::memory_order_relaxed);
    // The kernel already balanced this connection onto this loop's socket.
    Adopt(loop, fd);
  }
}

void Server::Impl::Adopt(Loop* loop, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->last_active = Clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    closed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  loop->conns.emplace(fd, std::move(conn));
}

void Server::Impl::BeginDrain(Loop* loop) {
  loop->drain_seen = true;
  loop->drain_start = Clock::now();
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, loop->listen_fd, nullptr);
  ::close(loop->listen_fd);
  loop->listen_fd = -1;
  if (loop->index == 0) {
    QATK_LOG(INFO) << "drain: listener closed, finishing "
                   << "in-flight requests";
  }
  std::vector<Conn*> conns;
  conns.reserve(loop->conns.size());
  for (auto& [fd, conn] : loop->conns) conns.push_back(conn.get());
  for (Conn* conn : conns) DrainConn(loop, conn);
}

void Server::Impl::DrainConn(Loop* loop, Conn* conn) {
  // Final read pull: answer everything that had reached the kernel buffer
  // by the time the drain was requested, then cut the read side. Requests
  // arriving later see a closed/half-closed socket, never a dropped
  // response.
  if (!conn->read_shutdown) {
    if (!HandleReadable(loop, conn)) return;  // Closed.
    conn->read_shutdown = true;
    ::shutdown(conn->fd, SHUT_RD);
  }
  if (conn->write_off >= conn->write_buf.size()) {
    CloseConn(loop, conn);
  }
}

void Server::Impl::CloseConn(Loop* loop, Conn* conn) {
  // Admitted requests whose responses never reached the socket release
  // their admission slots here.
  size_t unreleased = 0;
  for (const PendingResponse& pending : conn->pending) {
    if (pending.admitted) ++unreleased;
  }
  if (unreleased > 0) {
    in_flight.fetch_sub(unreleased, std::memory_order_relaxed);
  }
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  closed.fetch_add(1, std::memory_order_relaxed);
  loop->conns.erase(conn->fd);
}

bool Server::Impl::HandleReadable(Loop* loop, Conn* conn) {
  char buf[65536];
  bool fault_close = false;
  for (;;) {
    if (options.fault != nullptr) {
      FaultDecision fault = FaultOn("server.read");
      if (fault.decision.torn) {
        // Mid-frame disconnect: deliver a prefix of what is readable,
        // then the connection dies.
        const size_t cap = fault.decision.TornBytes(sizeof(buf));
        const ssize_t n = cap == 0 ? 0 : ::read(conn->fd, buf, cap);
        if (n > 0) {
          conn->read_buf.append(buf, static_cast<size_t>(n));
          bytes_read.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
        }
        fault_close = true;
        break;
      }
      if (!fault.decision.status.ok()) {
        read_faults.fetch_add(1, std::memory_order_relaxed);
        if (fault.decision.status.IsUnavailable() && !fault.crashed) {
          // Transient (EAGAIN-storm) injection: bail out of this read
          // round; level-triggered epoll re-delivers the readiness.
          break;
        }
        CloseConn(loop, conn);
        return false;
      }
    }
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->read_buf.append(buf, static_cast<size_t>(n));
      bytes_read.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      conn->last_active = Clock::now();
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn->read_shutdown = true;  // Peer finished sending (EOF).
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(loop, conn);
    return false;
  }
  if (!ProcessFrames(loop, conn)) return false;
  if (!FlushWrites(loop, conn)) return false;
  if (fault_close) {
    CloseConn(loop, conn);
    return false;
  }
  // Slow-client protection: a peer that pipelines requests but does not
  // drain responses is cut off once the cap is reached.
  if (conn->write_buf.size() - conn->write_off > options.max_write_buffer) {
    QATK_LOG(WARN) << "closing slow client: " << conn->write_buf.size()
                   << " bytes of responses unread";
    CloseConn(loop, conn);
    return false;
  }
  if (conn->read_shutdown && conn->write_off >= conn->write_buf.size()) {
    CloseConn(loop, conn);
    return false;
  }
  return true;
}

bool Server::Impl::ProcessFrames(Loop* loop, Conn* conn) {
  // Batch execution: every complete frame already buffered is answered
  // before a single flush, so one readable event costs one write syscall
  // regardless of pipelining depth.
  const Clock::time_point arrival = Clock::now();
  size_t offset = 0;
  while (offset < conn->read_buf.size()) {
    FrameDecode decode =
        DecodeFrame(std::string_view(conn->read_buf).substr(offset),
                    kDefaultMaxFrameBytes);
    if (decode.state == FrameDecode::State::kNeedMore) break;
    if (decode.state == FrameDecode::State::kError) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      obs_protocol_errors->Add();
      Respond(loop, conn, 0, Status::Invalid(decode.error), Json(),
              /*admitted=*/false, Tally::kNone);
      conn->close_after_flush = true;
      conn->read_shutdown = true;
      conn->read_buf.clear();
      return true;
    }
    HandleRequest(loop, conn, decode.payload, arrival);
    offset += decode.consumed;
  }
  if (offset > 0) conn->read_buf.erase(0, offset);
  return true;
}

void Server::Impl::HandleRequest(Loop* loop, Conn* conn,
                                 std::string_view payload,
                                 Clock::time_point arrival) {
  requests.fetch_add(1, std::memory_order_relaxed);
  // Direct Recommend (DESIGN.md §10): decoded into the loop's reusable
  // request and bundle, executed into its reusable recommendation and
  // encoded straight to bytes, with no Json tree and, once warm, no
  // allocation. Every other method, and every payload the decoder
  // refuses, goes through ParseRequest, which owns the error text.
  if (service != nullptr &&
      DecodeRequestInto(payload, &loop->request, &loop->bundle).ok() &&
      loop->request.method == Method::kRecommend) {
    if (!Admit(loop, conn, loop->request, arrival)) return;
    Status status;
    {
      obs::ScopedTimer span(
          method_metrics[static_cast<size_t>(Method::kRecommend)].latency_us);
      status = service->RecommendInto(loop->bundle, &loop->recommendation);
    }
    (status.ok() ? responses_ok : responses_error)
        .fetch_add(1, std::memory_order_relaxed);
    loop->response_scratch.clear();
    if (status.ok()) {
      EncodeRecommendResponseTo(loop->request.id, loop->recommendation,
                                &loop->response_scratch);
    } else {
      EncodeResponseTo(loop->request.id, status, Json(),
                       &loop->response_scratch);
    }
    AppendResponse(conn, loop->response_scratch, /*admitted=*/true,
                   status.ok() ? Tally::kOk : Tally::kError);
    return;
  }
  Result<Request> parsed = ParseRequest(payload);
  if (!parsed.ok()) {
    // The framing is intact, so the connection survives; only this
    // request is answered with the parse error.
    protocol_errors.fetch_add(1, std::memory_order_relaxed);
    obs_protocol_errors->Add();
    responses_error.fetch_add(1, std::memory_order_relaxed);
    Respond(loop, conn, 0, parsed.status(), Json(),
            /*admitted=*/false, Tally::kError);
    return;
  }
  const Request& request = *parsed;
  if (!Admit(loop, conn, request, arrival)) return;
  Response response;
  {
    // The latency span covers execution only: shed, expired, and
    // server-level requests never reach this histogram, so its count is
    // exactly the executed-request tally.
    obs::ScopedTimer span(
        method_metrics[static_cast<size_t>(request.method)].latency_us);
    response = handler->Handle(request);
  }
  (response.ok() ? responses_ok : responses_error)
      .fetch_add(1, std::memory_order_relaxed);
  Respond(loop, conn, response.id, Status(response.code, response.message),
          response.result, /*admitted=*/true,
          response.ok() ? Tally::kOk : Tally::kError);
}

bool Server::Impl::Admit(Loop* loop, Conn* conn, const Request& request,
                         Clock::time_point arrival) {
  method_metrics[static_cast<size_t>(request.method)].count->Add();
  if (request.method == Method::kHealth) {
    responses_ok.fetch_add(1, std::memory_order_relaxed);
    Respond(loop, conn, request.id, Status::OK(), HealthJson(),
            /*admitted=*/false, Tally::kOk);
    return false;
  }
  if (request.method == Method::kStats) {
    responses_ok.fetch_add(1, std::memory_order_relaxed);
    Respond(loop, conn, request.id, Status::OK(), StatsJson(),
            /*admitted=*/false, Tally::kOk);
    return false;
  }
  if (request.method == Method::kMetricsText) {
    responses_ok.fetch_add(1, std::memory_order_relaxed);
    Respond(loop, conn, request.id, Status::OK(), MetricsTextJson(),
            /*admitted=*/false, Tally::kOk);
    return false;
  }
  if (request.deadline_ms >= 0 &&
      ElapsedMs(arrival, Clock::now()) >= request.deadline_ms) {
    deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    obs_deadline->Add();
    responses_error.fetch_add(1, std::memory_order_relaxed);
    Respond(loop, conn, request.id,
            Status::DeadlineExceeded(
                "request expired after " +
                std::to_string(request.deadline_ms) +
                "ms before execution"),
            Json(), /*admitted=*/false, Tally::kError);
    return false;
  }
  // Admission control: bound the number of admitted-but-unflushed
  // requests globally; beyond the cap, shed instead of queueing.
  size_t current = in_flight.load(std::memory_order_relaxed);
  while (current < options.max_in_flight) {
    if (in_flight.compare_exchange_weak(current, current + 1,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
  shed.fetch_add(1, std::memory_order_relaxed);
  obs_shed->Add();
  responses_error.fetch_add(1, std::memory_order_relaxed);
  Respond(loop, conn, request.id,
          Status::Unavailable("server over capacity (max_in_flight=" +
                              std::to_string(options.max_in_flight) + ")"),
          Json(), /*admitted=*/false, Tally::kError);
  return false;
}

void Server::Impl::Respond(Loop* loop, Conn* conn, int64_t id,
                           const Status& status, const Json& result,
                           bool admitted, Tally tally) {
  // Encode into the loop's reusable scratch: its capacity survives across
  // the whole batch (and the loop's lifetime), so steady state is
  // allocation-free up to the largest response seen.
  loop->response_scratch.clear();
  EncodeResponseTo(id, status, result, &loop->response_scratch);
  AppendResponse(conn, loop->response_scratch, admitted, tally);
}

void Server::Impl::AppendResponse(Conn* conn, std::string_view payload,
                                  bool admitted, Tally tally) {
  AppendFrame(payload, &conn->write_buf);
  conn->enqueued_total += kLengthPrefixBytes + payload.size();
  conn->pending.push_back({conn->enqueued_total, admitted, tally});
}

void Server::Impl::ArmWrite(Loop* loop, Conn* conn, bool want) {
  if (conn->want_write == want) return;
  conn->want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

bool Server::Impl::FlushWrites(Loop* loop, Conn* conn) {
  auto release_flushed = [this, conn] {
    size_t released = 0;
    while (!conn->pending.empty() &&
           conn->pending.front().end <= conn->flushed_total) {
      if (conn->pending.front().admitted) ++released;
      conn->pending.pop_front();
    }
    if (released > 0) {
      in_flight.fetch_sub(released, std::memory_order_relaxed);
    }
  };
  while (conn->write_off < conn->write_buf.size()) {
    const char* data = conn->write_buf.data() + conn->write_off;
    const size_t remaining = conn->write_buf.size() - conn->write_off;
    if (options.fault != nullptr) {
      FaultDecision fault = FaultOn("server.write");
      if (fault.decision.torn) {
        // Torn write: a prefix of the pending bytes reaches the peer,
        // then the connection dies mid-frame.
        const size_t cap = fault.decision.TornBytes(remaining);
        if (cap > 0) {
          const ssize_t n = ::write(conn->fd, data, cap);
          if (n > 0) {
            conn->write_off += static_cast<size_t>(n);
            conn->flushed_total += static_cast<uint64_t>(n);
            bytes_written.fetch_add(static_cast<uint64_t>(n),
                                    std::memory_order_relaxed);
          }
        }
        write_faults.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, conn);
        return false;
      }
      if (!fault.decision.status.ok()) {
        write_faults.fetch_add(1, std::memory_order_relaxed);
        if (fault.decision.status.IsUnavailable() && !fault.crashed) {
          // Transient: pretend the socket is full; EPOLLOUT retries.
          ArmWrite(loop, conn, true);
          return true;
        }
        CloseConn(loop, conn);
        return false;
      }
    }
    const ssize_t n = ::write(conn->fd, data, remaining);
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      conn->flushed_total += static_cast<uint64_t>(n);
      bytes_written.fetch_add(static_cast<uint64_t>(n),
                              std::memory_order_relaxed);
      conn->last_active = Clock::now();
      release_flushed();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ArmWrite(loop, conn, true);
      // Compact the flushed prefix so a long-lived stalled buffer does
      // not pin twice the bytes it owes.
      if (conn->write_off > 0) {
        conn->write_buf.erase(0, conn->write_off);
        conn->write_off = 0;
      }
      conn->pending.Compact();
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(loop, conn);  // EPIPE / ECONNRESET / other fatal error.
    return false;
  }
  conn->write_buf.clear();
  conn->write_off = 0;
  release_flushed();
  ArmWrite(loop, conn, false);
  if (conn->close_after_flush ||
      (conn->read_shutdown && loop->drain_seen)) {
    CloseConn(loop, conn);
    return false;
  }
  return true;
}

Json Server::Impl::HealthJson() const {
  // Field order is part of the wire contract (golden frames): handler
  // prefix, then the server-owned fields, then the handler suffix.
  Json result = Json::Object();
  handler->AddHealthPrefix(&result);
  result.Set("draining", Json(Draining()));
  result.Set("threads", Json(static_cast<int64_t>(loops.size())));
  handler->AddHealthSuffix(&result);
  return result;
}

Json Server::Impl::StatsJson() const {
  const auto get = [](const std::atomic<uint64_t>& a) {
    return Json(static_cast<int64_t>(a.load(std::memory_order_relaxed)));
  };
  Json result = Json::Object();
  result.Set("accepted", get(accepted));
  result.Set("closed", get(closed));
  result.Set("requests", get(requests));
  result.Set("responses_ok", get(responses_ok));
  result.Set("responses_error", get(responses_error));
  result.Set("shed", get(shed));
  result.Set("deadline_exceeded", get(deadline_exceeded));
  result.Set("protocol_errors", get(protocol_errors));
  result.Set("read_faults", get(read_faults));
  result.Set("write_faults", get(write_faults));
  result.Set("bytes_read", get(bytes_read));
  result.Set("bytes_written", get(bytes_written));
  result.Set("in_flight", Json(static_cast<int64_t>(
                  in_flight.load(std::memory_order_relaxed))));
  result.Set("drain_dropped", get(drain_dropped));
  // Per-method observability: request tally, executed tally (the latency
  // histogram's count), and quantiles. Every method is present so the
  // payload shape is deterministic.
  Json methods = Json::Object();
  for (size_t m = 0; m < kNumMethods; ++m) {
    const obs::HistogramSnapshot hist =
        method_metrics[m].latency_us->Snapshot();
    Json entry = Json::Object();
    entry.Set("count", Json(static_cast<int64_t>(
                           method_metrics[m].count->Value())));
    entry.Set("executed", Json(static_cast<int64_t>(hist.total)));
    entry.Set("p50_us", Json(static_cast<int64_t>(hist.Quantile(0.5))));
    entry.Set("p99_us", Json(static_cast<int64_t>(hist.Quantile(0.99))));
    methods.Set(MethodToString(static_cast<Method>(m)), std::move(entry));
  }
  result.Set("methods", std::move(methods));
  // Handler-owned fields (durability, cluster routing) append last so the
  // server-owned shape above stays byte-stable.
  handler->AddStatsFields(&result);
  return result;
}

Json Server::Impl::MetricsTextJson() const {
  Json result = Json::Object();
  result.Set("text",
             Json(RenderPrometheusText(obs::Registry::Global().Snapshot())));
  return result;
}

Response ServiceRequestHandler::Handle(const Request& request) {
  return Dispatch(service_, request);
}

void ServiceRequestHandler::AddHealthPrefix(Json* health) const {
  health->Set("trained", Json(service_->trained()));
}

void ServiceRequestHandler::AddHealthSuffix(Json* health) const {
  const quest::RecommendationService::DurabilityStats durability =
      service_->durability();
  health->Set("durable", Json(durability.durable));
  if (durability.durable) {
    health->Set("recovered_snapshot", Json(durability.recovered_snapshot));
    health->Set("replayed_records",
                Json(static_cast<int64_t>(durability.replayed_records)));
    health->Set("last_lsn", Json(static_cast<int64_t>(durability.last_lsn)));
  }
  // Shard identity, only when the service is scoped: the coordinator
  // verifies on connect that every worker was partitioned the same way.
  const quest::RecommendationService::Options::ShardScope& shard =
      service_->options().shard;
  if (shard.active()) {
    Json shard_json = Json::Object();
    shard_json.Set("index", Json(static_cast<int64_t>(shard.shard_index)));
    shard_json.Set("shards", Json(static_cast<int64_t>(shard.num_shards)));
    shard_json.Set("sharder", Json(shard.sharder));
    shard_json.Set("ordinal_high",
                   Json(static_cast<int64_t>(service_->ordinal_high())));
    health->Set("shard", std::move(shard_json));
  }
}

void ServiceRequestHandler::AddStatsFields(Json* stats) const {
  // Service durability: recovery outcome (frozen at boot) plus the live
  // durable-mutation high-water mark.
  const quest::RecommendationService::DurabilityStats durability =
      service_->durability();
  Json durable = Json::Object();
  durable.Set("durable", Json(durability.durable));
  durable.Set("recovered_snapshot", Json(durability.recovered_snapshot));
  durable.Set("replayed_records",
              Json(static_cast<int64_t>(durability.replayed_records)));
  durable.Set("last_lsn", Json(static_cast<int64_t>(durability.last_lsn)));
  durable.Set("recovery_us",
              Json(static_cast<int64_t>(durability.recovery_us)));
  stats->Set("durability", std::move(durable));
}

Server::Server(quest::RecommendationService* service, Options options)
    : impl_(std::make_unique<Impl>()) {
  impl_->owned_handler = std::make_unique<ServiceRequestHandler>(service);
  impl_->handler = impl_->owned_handler.get();
  impl_->service = service;
  impl_->options = std::move(options);
  impl_->self = this;
}

Server::Server(RequestHandler* handler, Options options)
    : impl_(std::make_unique<Impl>()) {
  impl_->handler = handler;
  impl_->options = std::move(options);
  impl_->self = this;
}

Server::~Server() {
  if (impl_->started && !impl_->joined) {
    RequestDrain();
    const Status status = Wait();
    static_cast<void>(status);  // Destructor: drops are already counted.
  }
}

Status Server::Start() {
  if (impl_->started) return Status::Invalid("server already started");
  return impl_->Start();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  // Only async-signal-safe calls below: SIGTERM handlers route here.
  const uint64_t token = 1;
  for (auto& loop : impl_->loops) {
    [[maybe_unused]] ssize_t n =
        ::write(loop->wake_fd, &token, sizeof(token));
  }
}

Status Server::Wait() {
  if (!impl_->started) return Status::Invalid("server never started");
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  impl_->joined = true;
  const uint64_t dropped =
      impl_->drain_dropped.load(std::memory_order_relaxed);
  if (dropped > 0) {
    return Status::Unavailable("drain dropped " + std::to_string(dropped) +
                               " unflushed responses");
  }
  return Status::OK();
}

Status Server::Drain() {
  RequestDrain();
  return Wait();
}

ServerStats Server::stats() const {
  const Impl& impl = *impl_;
  ServerStats stats;
  const auto get = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  stats.accepted = get(impl.accepted);
  stats.closed = get(impl.closed);
  stats.requests = get(impl.requests);
  stats.responses_ok = get(impl.responses_ok);
  stats.responses_error = get(impl.responses_error);
  stats.shed = get(impl.shed);
  stats.deadline_exceeded = get(impl.deadline_exceeded);
  stats.protocol_errors = get(impl.protocol_errors);
  stats.read_faults = get(impl.read_faults);
  stats.write_faults = get(impl.write_faults);
  stats.bytes_read = get(impl.bytes_read);
  stats.bytes_written = get(impl.bytes_written);
  stats.drain_dropped = get(impl.drain_dropped);
  return stats;
}

}  // namespace qatk::server
