#ifndef QATK_LOADBENCH_OPEN_LOOP_H_
#define QATK_LOADBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace qatk::loadbench {

/// Monotonic clock in nanoseconds (CLOCK_MONOTONIC, the clock timerfd and
/// std::chrono::steady_clock use on Linux).
int64_t NowNs();

/// One request of an open-loop schedule.
struct Arrival {
  int64_t due_ns = 0;  ///< Offset from the run start.
  uint32_t frame = 0;  ///< Index into the frame table handed to Run.
  uint32_t conn = 0;   ///< Connection that carries it.
};

/// Poisson arrivals at `rate_qps` over [0, seconds): exponential gaps drawn
/// from `rng`, frames taken in order from `frame_order` (cycled), spread
/// round-robin over connections [0, conns).
std::vector<Arrival> PoissonSchedule(double rate_qps, double seconds,
                                     const std::vector<uint32_t>& frame_order,
                                     uint32_t conns, Rng* rng);

/// Outcome of one open-loop run. Per-arrival vectors are parallel to the
/// schedule.
struct RunResult {
  /// Response time minus *due* time: a stall is charged to every request
  /// it delays, not only to the one in service (coordinated-omission safe).
  /// -1 for arrivals that got no response.
  std::vector<int64_t> latency_ns;
  /// Send time minus due time: how late the generator ran.
  std::vector<int64_t> lag_ns;
  /// The response arrived and passed the check.
  std::vector<uint8_t> ok;
  size_t failed = 0;
  /// Least-squares growth of the in-flight count over the send window, in
  /// requests per second; ~0 when the server keeps up.
  double backlog_slope = 0;
};

/// Decides whether a response payload is correct for the frame it answers.
using ResponseCheck =
    std::function<bool(uint32_t frame, std::string_view payload)>;

/// \brief Single-threaded open-loop load generator over the QUEST wire
/// protocol.
///
/// The calling thread owns every connection and one epoll instance. A
/// request is sent when it is due, whether or not earlier ones were
/// answered; between due times the thread sleeps in epoll_wait on an
/// absolute timerfd, so it never spins. Responses on one connection arrive
/// in request order, so each connection keeps a FIFO of what it sent.
class OpenLoopDriver {
 public:
  OpenLoopDriver();
  ~OpenLoopDriver();

  OpenLoopDriver(const OpenLoopDriver&) = delete;
  OpenLoopDriver& operator=(const OpenLoopDriver&) = delete;

  /// Opens `conns` connections to 127.0.0.1:port.
  Status Connect(uint16_t port, uint32_t conns);

  uint32_t connections() const {
    return static_cast<uint32_t>(conns_.size());
  }

  /// Replays `schedule` (sorted by due time) and waits up to
  /// `drain_seconds` after the last due time for outstanding responses. A
  /// transport failure fails every request on that connection; a
  /// connection left owing responses is replaced before the next Run.
  RunResult Run(const std::vector<std::string>& frames,
                const std::vector<Arrival>& schedule,
                const ResponseCheck& check, double drain_seconds);

 private:
  struct Conn;

  Status Open(uint32_t index);
  void Close();

  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);

}  // namespace qatk::loadbench

#endif  // QATK_LOADBENCH_OPEN_LOOP_H_
