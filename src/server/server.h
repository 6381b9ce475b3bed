#ifndef QATK_SERVER_SERVER_H_
#define QATK_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "quest/recommendation_service.h"
#include "server/protocol.h"

namespace qatk::server {

/// Monotonically increasing serving counters, readable at any time and
/// exposed over the wire by the Stats method.
struct ServerStats {
  uint64_t accepted = 0;          ///< Connections accepted.
  uint64_t closed = 0;            ///< Connections closed (any reason).
  uint64_t requests = 0;          ///< Frames parsed as requests.
  uint64_t responses_ok = 0;      ///< Responses with code OK.
  uint64_t responses_error = 0;   ///< Responses with any error code.
  uint64_t shed = 0;              ///< Requests shed by admission control.
  uint64_t deadline_exceeded = 0; ///< Requests expired before execution.
  uint64_t protocol_errors = 0;   ///< Framing/parse errors (close follows).
  uint64_t read_faults = 0;       ///< Injected/transient read failures.
  uint64_t write_faults = 0;      ///< Injected/transient write failures.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t drain_dropped = 0;     ///< In-flight work lost at forced drain.
};

/// \brief Pluggable request execution behind the Server event loops.
///
/// The server owns transport concerns — framing, admission control,
/// deadlines, drain — and answers Health / Stats / MetricsText from its
/// own counters; everything else is forwarded to the handler. A custom
/// handler (the cluster scatter-gather coordinator) swaps the execution
/// semantics without touching the event-loop machinery. The hooks splice
/// handler-owned fields into the server-owned Health / Stats payloads at
/// fixed positions, so the standard handler reproduces the pre-handler
/// payloads byte for byte (golden wire frames guard this).
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  /// Executes one parsed request (service-backed methods only). Called
  /// concurrently from every event-loop thread; implementations must be
  /// thread-safe.
  virtual Response Handle(const Request& request) = 0;

  /// Fields preceding the server-owned Health fields (e.g. "trained").
  virtual void AddHealthPrefix(Json* /*health*/) const {}
  /// Fields following the server-owned Health fields (e.g. durability).
  virtual void AddHealthSuffix(Json* /*health*/) const {}
  /// Fields appended after the server-owned Stats fields.
  virtual void AddStatsFields(Json* /*stats*/) const {}
};

/// The standard handler: Dispatch against one RecommendationService, with
/// the service's trained flag, durability block, and (when shard-scoped)
/// shard identity spliced into Health / Stats.
class ServiceRequestHandler : public RequestHandler {
 public:
  /// `service` must outlive the handler.
  explicit ServiceRequestHandler(quest::RecommendationService* service)
      : service_(service) {}

  Response Handle(const Request& request) override;
  void AddHealthPrefix(Json* health) const override;
  void AddHealthSuffix(Json* health) const override;
  void AddStatsFields(Json* stats) const override;

 private:
  quest::RecommendationService* service_;
};

/// \brief Dependency-free epoll TCP front end for RecommendationService.
///
/// Threading model: `threads` event loops, each owning a private epoll
/// instance and the connections assigned to it — a connection is touched
/// by exactly one thread for its whole life, so per-connection state needs
/// no locks. Accept layout (DESIGN.md §12): every loop binds its own
/// SO_REUSEPORT listening socket on the same port and accepts directly
/// into itself — the kernel spreads connections across loops and no
/// cross-thread handoff happens at all. Start fails if SO_REUSEPORT or any
/// bind is refused; there is no other accept path. Requests execute
/// inline on the loop thread (the service's Recommend path is lock-free
/// per thread), and all responses produced by one readable event are
/// encoded into a loop-local scratch buffer and flushed with one write —
/// request batching amortizes syscalls, wakeups, and allocations.
///
/// Backpressure contract:
///  * Reads are bounded by the frame cap, kDefaultMaxFrameBytes (the
///    Client's too): a connection buffering more than one maximal frame
///    without completing it is a protocol error.
///  * Admission control: at most `max_in_flight` admitted requests may be
///    awaiting execution or sitting as unflushed responses, globally.
///    Beyond that, requests are answered immediately with kUnavailable
///    ("shed") instead of queueing unboundedly.
///  * A request carrying "deadline_ms" that has already aged past its
///    budget when its turn comes is answered with kDeadlineExceeded
///    without executing.
///  * Per-connection write buffers are capped at `max_write_buffer`; a
///    client that stops reading long enough to exceed the cap is closed
///    (slow-client protection).
///
/// Graceful drain: RequestDrain() (async-signal-safe) makes every loop
/// stop accepting, pull the bytes already queued in each connection's
/// kernel receive buffer, answer every complete request received so far,
/// flush, and close. Wait() returns OK when nothing in flight was
/// dropped; connections still unflushed after `drain_timeout_ms` are force
/// closed and counted in ServerStats::drain_dropped.
class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; read the choice back via port(). A
    /// fixed port that another listener already holds fails Start with
    /// "port in use" rather than sharing the port with that server.
    uint16_t port = 0;
    /// Event-loop threads, each with its own SO_REUSEPORT listener.
    size_t threads = 1;
    /// Admission-control cap (see class comment).
    size_t max_in_flight = 1024;
    size_t max_write_buffer = 8u << 20;
    /// > 0 shrinks each accepted connection's kernel send buffer. The
    /// default (0, kernel-tuned ~4MiB) lets small responses "flush" into
    /// the kernel instantly, releasing their admission slots; shedding
    /// tests shrink it so in-flight responses stay pinned against a
    /// slow-reading client deterministically.
    int sndbuf_bytes = 0;
    /// Connections with no traffic for this long are closed. <= 0
    /// disables the idle sweep.
    int idle_timeout_ms = 60000;
    /// Budget for flushing after a drain request before force-closing.
    int drain_timeout_ms = 10000;
    /// Optional fault injector (borrowed); instrumentation points
    /// "server.accept", "server.read", "server.write". The injector is
    /// consulted under a server-internal mutex, but schedules are only
    /// deterministic with threads == 1. It must outlive the Server:
    /// destruction drains, and the drain's final read pull consults it.
    FaultInjector* fault = nullptr;
  };

  /// `service` must be trained (or be trained before the first request)
  /// and must outlive the server. Equivalent to constructing with an
  /// owned ServiceRequestHandler.
  Server(quest::RecommendationService* service, Options options);

  /// Serves through a caller-owned handler (must outlive the server).
  Server(RequestHandler* handler, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loops. Callable once. When it
  /// returns OK, every loop's listener is bound and accepting (connections
  /// land in the kernel backlog at worst) and every event-loop thread is
  /// running — a port number published after Start is immediately usable.
  /// On error no thread runs and the fds opened so far close with the
  /// Server.
  Status Start();

  /// The bound port (valid after Start), host order.
  uint16_t port() const { return port_; }

  /// Initiates graceful drain. Async-signal-safe: an atomic store plus
  /// eventfd writes, so SIGTERM handlers may call it directly.
  void RequestDrain();

  /// Joins the event loops (blocking until drain completes). Returns OK
  /// when no in-flight request was dropped.
  Status Wait();

  /// RequestDrain() + Wait().
  Status Drain();

  bool draining() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> drain_requested_{false};
  uint16_t port_ = 0;
};

}  // namespace qatk::server

#endif  // QATK_SERVER_SERVER_H_
