// Socket front end of the simulation service.
//
// Transport: newline-delimited JSON over a Unix-domain socket (default) or
// a TCP loopback socket (--tcp; port 0 picks an ephemeral port, report()ed
// after bind). One connection may carry many requests; every request is one
// line, every response is one line. Requests are parsed with the strict
// envelope codec under JsonParseLimits, so oversized or pathologically
// nested payloads get a coded error response instead of a crash
// (io/json.h).
//
// Responses carry schema "semsim.response/v1":
//
//   {"schema":"semsim.response/v1","ok":true,"verb":"submit",
//    "job":3,"fingerprint":"0123456789abcdef","state":"queued",
//    "cached":false}
//   {"schema":"semsim.response/v1","ok":false,
//    "error":{"code":801,"name":"serve.unknown_job","message":"..."}}
//
// EXCEPTION: the `result` verb answers with the job's stored canonical
// RunResult document VERBATIM (schema "semsim.run_result/v3") — not
// wrapped in a response envelope — so a client comparing served bytes
// against a CLI --canonical-json file compares exactly the same document.
//
// The `shutdown` verb acknowledges, then makes run() return; the daemon
// then shuts the scheduler down, which cancels + checkpoints the running
// job (serve/scheduler.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "serve/scheduler.h"

namespace semsim {

struct ServerConfig {
  /// Unix-domain socket path; takes precedence over TCP when non-empty.
  /// A stale file at the path is replaced.
  std::string unix_path;
  /// TCP loopback port (used when unix_path is empty); 0 = ephemeral.
  std::uint16_t tcp_port = 0;
  /// Request-line byte cap; longer lines are answered with
  /// parse.json_too_large and the connection is closed.
  std::size_t max_request_bytes = 4ull << 20;
  /// Nesting-depth cap for request documents.
  std::size_t max_json_depth = 64;
  /// Hang up on a connection that sends nothing for this long (ms); a
  /// wedged client must not pin a worker thread forever. 0 = never.
  int idle_timeout_ms = 60'000;
};

class Server {
 public:
  /// Binds and listens immediately (throws IoError on failure); serving
  /// starts with run().
  Server(const ServerConfig& config, JobScheduler& scheduler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (after an ephemeral bind), 0 for Unix transport.
  std::uint16_t port() const noexcept { return port_; }

  /// Accept loop; returns after stop() or a `shutdown` request. Call from
  /// the daemon's main thread (tests run it in a std::thread).
  void run();

  /// Makes run() return. Async-signal-safe (an atomic store plus one
  /// write() to the internal self-pipe), so a daemon's SIGINT/SIGTERM
  /// handler may call it directly; every poll set in the server watches
  /// the pipe's read end and wakes immediately — no timeout ticks.
  void stop() noexcept;

  /// Connection threads not yet joined: the live connections plus those
  /// that ended since the last accept.
  std::size_t connection_threads() const {
    const std::lock_guard<std::mutex> lock(workers_mu_);
    return workers_.size();
  }

  /// True once a client sent the `shutdown` verb.
  bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

 private:
  void handle_connection(int fd);
  /// Joins every connection thread (shutdown).
  void join_workers();
  /// One request line -> one response line (no trailing newline).
  std::string handle_line(const std::string& line);

  const ServerConfig config_;
  JobScheduler& scheduler_;
  int listen_fd_ = -1;
  /// Self-pipe: stop() writes one byte that is NEVER drained, so the read
  /// end stays level-triggered readable for every poller at once.
  int pipe_rd_ = -1;
  int pipe_wr_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  mutable std::mutex workers_mu_;
  std::vector<std::thread> workers_;
  /// Connection threads that returned and await their join (workers_mu_).
  std::vector<std::thread::id> finished_;
};

}  // namespace semsim
