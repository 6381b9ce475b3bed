#include "open_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <utility>

#include "server/protocol.h"

namespace qatk::loadbench {

namespace {

/// epoll tag of the timerfd; connections are tagged with their index.
constexpr uint64_t kTimerTag = ~uint64_t{0};
/// The in-flight count is sampled this often for the backlog slope.
constexpr int64_t kSampleEveryNs = 10'000'000;
/// The first due time lies this far after Run starts, so it is not late.
constexpr int64_t kLeadNs = 1'000'000;

/// Least-squares slope of y over x; 0 without two distinct x values.
double Slope(const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) return 0;
  double mean_x = 0;
  double mean_y = 0;
  for (const auto& [x, y] : points) {
    mean_x += x;
    mean_y += y;
  }
  mean_x /= static_cast<double>(points.size());
  mean_y /= static_cast<double>(points.size());
  double sxy = 0;
  double sxx = 0;
  for (const auto& [x, y] : points) {
    sxy += (x - mean_x) * (y - mean_y);
    sxx += (x - mean_x) * (x - mean_x);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

}  // namespace

int64_t NowNs() {
  timespec now{};
  ::clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

std::vector<Arrival> PoissonSchedule(double rate_qps, double seconds,
                                     const std::vector<uint32_t>& frame_order,
                                     uint32_t conns, Rng* rng) {
  std::vector<Arrival> schedule;
  if (rate_qps <= 0 || seconds <= 0 || frame_order.empty() || conns == 0) {
    return schedule;
  }
  schedule.reserve(static_cast<size_t>(rate_qps * seconds * 1.1) + 16);
  const double end_ns = seconds * 1e9;
  double due_ns = 0;
  for (size_t i = 0;; ++i) {
    due_ns += -std::log(1.0 - rng->NextDouble()) * 1e9 / rate_qps;
    if (due_ns >= end_ns) break;
    schedule.push_back({static_cast<int64_t>(due_ns),
                        frame_order[i % frame_order.size()],
                        static_cast<uint32_t>(i % conns)});
  }
  return schedule;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index =
      std::clamp<size_t>(static_cast<size_t>(rank), 1, values->size());
  return (*values)[index - 1];
}

struct OpenLoopDriver::Conn {
  int fd = -1;
  bool broken = false;
  bool want_write = false;
  std::string out;  ///< Request bytes the kernel has not taken yet.
  size_t out_off = 0;
  std::string in;  ///< Response bytes not yet decoded.
  std::deque<uint32_t> sent;  ///< Schedule indices awaiting a response.

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

OpenLoopDriver::OpenLoopDriver() = default;

OpenLoopDriver::~OpenLoopDriver() { Close(); }

void OpenLoopDriver::Close() {
  conns_.clear();
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  timer_fd_ = -1;
  epoll_fd_ = -1;
}

Status OpenLoopDriver::Open(uint32_t index) {
  auto conn = std::make_unique<Conn>();
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) return Status::IOError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::IOError(std::string("connect failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(conn->fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError("cannot make the socket non-blocking");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = index;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event) != 0) {
    return Status::IOError("epoll_ctl(ADD) failed");
  }
  conns_[index] = std::move(conn);
  return Status::OK();
}

Status OpenLoopDriver::Connect(uint16_t port, uint32_t conns) {
  Close();
  port_ = port;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    Close();
    return Status::IOError("epoll/timerfd setup failed");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kTimerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &event) != 0) {
    Close();
    return Status::IOError("epoll_ctl(ADD timerfd) failed");
  }
  conns_.resize(conns);
  for (uint32_t i = 0; i < conns; ++i) {
    const Status opened = Open(i);
    if (!opened.ok()) {
      Close();
      return opened;
    }
  }
  // Due times are met to the microsecond: the default 50 us timer slack
  // would otherwise show up as send lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return Status::OK();
}

RunResult OpenLoopDriver::Run(const std::vector<std::string>& frames,
                              const std::vector<Arrival>& schedule,
                              const ResponseCheck& check,
                              double drain_seconds) {
  const size_t n = schedule.size();
  RunResult result;
  result.latency_ns.assign(n, -1);
  result.lag_ns.assign(n, 0);
  result.ok.assign(n, 0);
  for (uint32_t i = 0; i < conns_.size(); ++i) {
    // A connection that stays broken fails every request sent on it.
    if (conns_[i]->broken) static_cast<void>(Open(i));
  }

  const int64_t start = NowNs() + kLeadNs;
  const int64_t last_due = start + (n > 0 ? schedule.back().due_ns : 0);
  const int64_t deadline =
      last_due + static_cast<int64_t>(drain_seconds * 1e9);
  size_t next = 0;
  size_t in_flight = 0;
  int64_t next_sample = start;
  int64_t armed = -1;
  std::vector<std::pair<double, double>> samples;

  const auto set_write_interest = [&](uint32_t index, bool want) {
    Conn& conn = *conns_[index];
    if (conn.want_write == want) return;
    conn.want_write = want;
    epoll_event event{};
    event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    event.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
  };
  // A dead connection loses everything still owed on it.
  const auto fail = [&](uint32_t index) {
    Conn& conn = *conns_[index];
    in_flight -= conn.sent.size();
    conn.sent.clear();
    conn.out.clear();
    conn.out_off = 0;
    conn.broken = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  };
  const auto flush = [&](uint32_t index) {
    Conn& conn = *conns_[index];
    while (conn.out_off < conn.out.size()) {
      const ssize_t wrote =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (wrote > 0) {
        conn.out_off += static_cast<size_t>(wrote);
      } else if (wrote < 0 && errno == EINTR) {
        continue;
      } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_write_interest(index, true);
        return;
      } else {
        fail(index);
        return;
      }
    }
    conn.out.clear();
    conn.out_off = 0;
    set_write_interest(index, false);
  };
  const auto receive = [&](uint32_t index) {
    Conn& conn = *conns_[index];
    char buffer[64 * 1024];
    bool closed = false;
    for (;;) {
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (got > 0) {
        conn.in.append(buffer, static_cast<size_t>(got));
      } else if (got < 0 && errno == EINTR) {
        continue;
      } else {
        closed = !(got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
      }
    }
    const int64_t now = NowNs();
    size_t offset = 0;
    while (!conn.sent.empty()) {
      const server::FrameDecode frame =
          server::DecodeFrame(std::string_view(conn.in).substr(offset));
      if (frame.state == server::FrameDecode::State::kNeedMore) break;
      if (frame.state == server::FrameDecode::State::kError) {
        closed = true;
        break;
      }
      const uint32_t arrival = conn.sent.front();
      conn.sent.pop_front();
      --in_flight;
      result.latency_ns[arrival] = now - (start + schedule[arrival].due_ns);
      result.ok[arrival] = check(schedule[arrival].frame, frame.payload);
      offset += frame.consumed;
    }
    conn.in.erase(0, offset);
    if (closed) fail(index);
  };

  epoll_event events[64];
  for (;;) {
    int64_t now = NowNs();
    while (next < n && start + schedule[next].due_ns <= now) {
      const Arrival& arrival = schedule[next];
      Conn& conn = *conns_[arrival.conn];
      result.lag_ns[next] = now - (start + arrival.due_ns);
      if (!conn.broken) {
        conn.out.append(frames[arrival.frame]);
        conn.sent.push_back(static_cast<uint32_t>(next));
        ++in_flight;
      }
      ++next;
    }
    for (uint32_t i = 0; i < conns_.size(); ++i) {
      const Conn& conn = *conns_[i];
      if (!conn.broken && !conn.want_write && conn.out_off < conn.out.size()) {
        flush(i);
      }
    }
    now = NowNs();
    for (; next_sample <= std::min(now, last_due);
         next_sample += kSampleEveryNs) {
      samples.emplace_back(static_cast<double>(next_sample - start) / 1e9,
                           static_cast<double>(in_flight));
    }
    if ((next == n && in_flight == 0) || now >= deadline) break;
    int64_t wake = next < n ? start + schedule[next].due_ns : deadline;
    if (next_sample <= last_due) wake = std::min(wake, next_sample);
    if (wake != armed) {
      itimerspec when{};
      when.it_value.tv_sec = wake / 1'000'000'000;
      when.it_value.tv_nsec = wake % 1'000'000'000;
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &when, nullptr);
      armed = wake;
    }
    const int ready = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (ready < 0 && errno != EINTR) break;
    for (int e = 0; e < ready; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t got =
            ::read(timer_fd_, &expirations, sizeof(expirations));
        armed = -1;
        continue;
      }
      const uint32_t index = static_cast<uint32_t>(tag);
      if (conns_[index]->broken) continue;
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) receive(index);
      if (!conns_[index]->broken && (events[e].events & EPOLLOUT)) {
        flush(index);
      }
    }
  }
  // Answers still owed are lost. Their connection is replaced before the
  // next run, so a late answer is never taken for a new one.
  for (uint32_t i = 0; i < conns_.size(); ++i) {
    if (!conns_[i]->broken && !conns_[i]->sent.empty()) fail(i);
  }
  for (const uint8_t good : result.ok) result.failed += good ? 0 : 1;
  result.backlog_slope = Slope(samples);
  return result;
}

}  // namespace qatk::loadbench
