#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace qatk::server {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      read_buf_(std::move(other.read_buf_)),
      host_(std::move(other.host_)),
      port_(other.port_),
      timeout_ms_(other.timeout_ms_),
      rcvbuf_bytes_(other.rcvbuf_bytes_),
      connect_timeout_ms_(other.connect_timeout_ms_),
      has_endpoint_(other.has_endpoint_),
      retry_policy_(std::move(other.retry_policy_)) {
  other.fd_ = -1;
  other.has_endpoint_ = false;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    read_buf_ = std::move(other.read_buf_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    timeout_ms_ = other.timeout_ms_;
    rcvbuf_bytes_ = other.rcvbuf_bytes_;
    connect_timeout_ms_ = other.connect_timeout_ms_;
    has_endpoint_ = other.has_endpoint_;
    retry_policy_ = std::move(other.retry_policy_);
    other.fd_ = -1;
    other.has_endpoint_ = false;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port,
                       int timeout_ms, int rcvbuf_bytes,
                       int connect_timeout_ms) {
  Close();
  host_ = host;
  port_ = port;
  timeout_ms_ = timeout_ms;
  rcvbuf_bytes_ = rcvbuf_bytes;
  connect_timeout_ms_ = connect_timeout_ms;
  has_endpoint_ = true;
  // Non-blocking connect so establishment is bounded by
  // `connect_timeout_ms` instead of the kernel's SYN retry schedule (which
  // can sit in the minutes against a silently dead peer).
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return Status::IOError("socket() failed");
  if (rcvbuf_bytes > 0) {
    // Before connect(), so the shrunken window is what gets negotiated.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::Invalid("cannot parse host '" + host + "'");
  }
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    do {
      rc = ::poll(&pfd, 1, connect_timeout_ms > 0 ? connect_timeout_ms : -1);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      Close();
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " timed out after " +
                                 std::to_string(connect_timeout_ms) + "ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc < 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      const std::string what = std::strerror(err != 0 ? err : errno);
      Close();
      return Status::IOError("connect to " + host + ":" +
                             std::to_string(port) + " failed: " + what);
    }
  } else if (rc != 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Status::IOError("connect to " + host + ":" +
                           std::to_string(port) + " failed: " + err);
  }
  // Back to blocking mode: reads/writes are bounded by SO_RCVTIMEO /
  // SO_SNDTIMEO below, matching the pre-timeout behavior.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return Status::OK();
}

Status Client::Reconnect() {
  if (!has_endpoint_) {
    return Status::Invalid("Reconnect before any Connect");
  }
  return Connect(host_, port_, timeout_ms_, rcvbuf_bytes_,
                 connect_timeout_ms_);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  read_buf_.clear();
}

Status Client::Send(int64_t id, std::string_view method, const Json& params,
                    int64_t deadline_ms) {
  std::string bytes;
  AppendFrame(EncodeRequest(id, method, params, deadline_ms), &bytes);
  return SendRaw(bytes);
}

Status Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::Invalid("client is not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("write failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<std::string> Client::ReceiveFrame() {
  if (fd_ < 0) return Status::Invalid("client is not connected");
  char buf[65536];
  for (;;) {
    FrameDecode decode = DecodeFrame(read_buf_, kDefaultMaxFrameBytes);
    if (decode.state == FrameDecode::State::kFrame) {
      std::string payload(decode.payload);
      read_buf_.erase(0, decode.consumed);
      return payload;
    }
    if (decode.state == FrameDecode::State::kError) {
      return Status::Invalid("bad frame from server: " + decode.error);
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      read_buf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("connection closed by server" +
                             (read_buf_.empty()
                                  ? std::string()
                                  : " mid-frame (" +
                                        std::to_string(read_buf_.size()) +
                                        " stray bytes)"));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("read timed out");
    }
    return Status::IOError(std::string("read failed: ") +
                           std::strerror(errno));
  }
}

Result<Response> Client::Receive() {
  QATK_ASSIGN_OR_RETURN(std::string payload, ReceiveFrame());
  return ParseResponse(payload);
}

Result<Response> Client::Call(int64_t id, std::string_view method,
                              const Json& params, int64_t deadline_ms) {
  QATK_RETURN_NOT_OK(Send(id, method, params, deadline_ms));
  return Receive();
}

Result<Response> Client::CallWithRetry(int64_t id, std::string_view method,
                                       const Json& params, int64_t deadline_ms,
                                       int* attempts_out) {
  int attempts = 0;
  Result<Response> outcome = retry_policy_.Run([&]() -> Result<Response> {
    ++attempts;
    // A dead connection from a previous failed attempt (or a peer that
    // restarted between calls): re-establish before trying.
    if (!connected() && has_endpoint_) {
      Status reconnected = Reconnect();
      if (!reconnected.ok()) {
        return Status::Unavailable("reconnect failed: " +
                                   reconnected.message());
      }
    }
    Result<Response> reply = Call(id, method, params, deadline_ms);
    if (!reply.ok()) {
      if (reply.status().IsIOError()) {
        // Transport failure: drop the (now unusable, possibly mid-frame)
        // connection and surface a transient code so the policy retries
        // through the reconnect above.
        Close();
        return Status::Unavailable("transport failure: " +
                                   reply.status().message());
      }
      return reply;
    }
    // A transient code inside a well-formed response is the server saying
    // "not now" (shed, expired budget) — surface it as an error Status so
    // the policy's transiency check sees it; the request never executed,
    // so retrying cannot double-apply anything.
    const Response& response = reply.ValueOrDie();
    Status carried(response.code, response.message);
    if (IsTransient(carried)) return carried;
    return reply;
  });
  if (attempts_out != nullptr) *attempts_out = attempts;
  return outcome;
}

}  // namespace qatk::server
