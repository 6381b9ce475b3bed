#ifndef QATK_SERVER_CLIENT_H_
#define QATK_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "server/protocol.h"

namespace qatk::server {

/// \brief Minimal blocking TCP client for the QUEST wire protocol.
///
/// One in-order connection; supports pipelining: send any number of
/// requests with Send/SendRaw, then collect responses in order with
/// Receive. Not thread-safe. Connect is bounded by `connect_timeout_ms`
/// (non-blocking connect + poll), and CallWithRetry transparently
/// reconnects to the remembered endpoint after a transport failure, so a
/// peer restarting between calls costs a retry, not a hard error — the
/// tolerance the cluster front-end needs for shard restarts.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to host:port. `timeout_ms` bounds each subsequent blocking
  /// read/write; <= 0 means no timeout. `rcvbuf_bytes` > 0 shrinks the
  /// socket receive buffer before connecting (tests use a tiny window to
  /// pin server-side responses in flight deterministically).
  /// `connect_timeout_ms` bounds the connection establishment itself
  /// (kUnavailable on expiry); <= 0 blocks indefinitely. The endpoint is
  /// remembered for Reconnect.
  Status Connect(const std::string& host, uint16_t port,
                 int timeout_ms = 5000, int rcvbuf_bytes = 0,
                 int connect_timeout_ms = 5000);

  /// Re-establishes the connection to the endpoint of the last Connect
  /// (same timeouts and buffer sizing). Invalid before any Connect.
  Status Reconnect();

  bool connected() const { return fd_ >= 0; }

  void Close();

  /// Frames and writes one request payload (does not wait for the reply).
  Status Send(int64_t id, std::string_view method, const Json& params,
              int64_t deadline_ms = -1);

  /// Writes pre-encoded bytes verbatim (already framed). Lets benches
  /// pre-encode hot-path requests and lets tests send malformed frames.
  Status SendRaw(std::string_view bytes);

  /// Blocks until one full response frame arrives and parses it.
  Result<Response> Receive();

  /// Blocks until one full frame arrives; returns the raw JSON payload
  /// without parsing (bench hot path, torn-frame tests).
  Result<std::string> ReceiveFrame();

  /// Send + Receive for the common unary case.
  Result<Response> Call(int64_t id, std::string_view method,
                        const Json& params, int64_t deadline_ms = -1);

  /// Call with transient-failure retries under the configured policy.
  /// A response whose *payload* carries a transient code — the server
  /// answering kUnavailable when shedding under admission control, or
  /// kDeadlineExceeded when the request's budget expired queued — counts
  /// as a failed attempt just like a transport error, is backed off
  /// (jittered exponential, see RetryPolicy), and retried. Retrying is
  /// safe because shed/expired requests were never executed. A transport
  /// failure (peer died, connection reset, read timeout) closes the
  /// connection, reconnects to the remembered endpoint, and counts as a
  /// kUnavailable attempt — so a peer restarting mid-run is ridden out by
  /// the backoff instead of failing the call. Note a transport-failure
  /// retry is at-least-once: the lost reply may have been for an executed
  /// request. Exhausting the budget returns the last transient code as an
  /// error Status. `attempts_out` (optional) reports how many attempts
  /// were made.
  Result<Response> CallWithRetry(int64_t id, std::string_view method,
                                 const Json& params, int64_t deadline_ms = -1,
                                 int* attempts_out = nullptr);

  void set_retry_policy(RetryPolicy policy) {
    retry_policy_ = std::move(policy);
  }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

 private:
  int fd_ = -1;
  std::string read_buf_;
  /// Endpoint memory for Reconnect (set by Connect).
  std::string host_;
  uint16_t port_ = 0;
  int timeout_ms_ = 0;
  int rcvbuf_bytes_ = 0;
  int connect_timeout_ms_ = 0;
  bool has_endpoint_ = false;
  /// Default: 3 attempts, 50us base backoff, no jitter. qatk_serve-facing
  /// tools arm jitter to de-synchronize retry storms.
  RetryPolicy retry_policy_;
};

}  // namespace qatk::server

#endif  // QATK_SERVER_CLIENT_H_
