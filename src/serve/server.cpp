#include "serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "analysis/api.h"
#include "io/envelope.h"

namespace semsim {

namespace {

[[noreturn]] void io_fail(const std::string& what) {
  throw IoError(ErrorCode::kIoFailure,
                "server: " + what + ": " + std::strerror(errno));
}

/// {"schema":"semsim.response/v1","ok":false,"error":{...}}. An overload
/// rejection additionally carries "retry_after_ms" (when non-zero) so
/// clients can back off deterministically instead of hammering.
std::string error_response(ErrorCode code, const std::string& message,
                           std::uint64_t retry_after_ms = 0) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "semsim.response/v1");
  w.field("ok", false);
  w.key("error").begin_object();
  w.field("code", std::uint64_t{static_cast<std::uint16_t>(code)});
  w.field("name", error_code_name(code));
  w.field("message", message);
  if (retry_after_ms > 0) w.field("retry_after_ms", retry_after_ms);
  w.end_object();
  w.end_object();
  return w.take();
}

JsonWriter ok_response(const char* verb) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "semsim.response/v1");
  w.field("ok", true);
  w.field("verb", verb);
  return w;
}

void write_status(JsonWriter& w, const JobStatus& s) {
  w.field("job", s.id);
  w.field("state", job_state_name(s.state));
  w.field("priority", std::int64_t{s.priority});
  w.field("fingerprint", fingerprint_hex(s.fingerprint));
  w.field("cached", s.cached);
  if (s.deadline_unix_ms != 0) {
    // Deadline jobs only; absent otherwise so the status payload stays
    // byte-identical to pre-deadline daemons.
    w.field("deadline_unix_ms", s.deadline_unix_ms);
  }
  w.field("units_total", s.units_total);
  w.field("units_done", s.units_done);
  w.field("points_total", s.points_total);
  w.field("points_done", s.points_done);
  w.field("degraded_points", s.degraded_points);
  if (s.replicas_total > 0) {
    // Ensemble jobs only; absent for single-device jobs so the status
    // payload stays byte-identical to pre-ensemble daemons.
    w.field("replicas_total", s.replicas_total);
    w.field("replicas_done", s.replicas_done);
  }
  if (!s.partial.empty()) {
    w.key("partial").begin_array();
    for (const auto& [index, p] : s.partial) {
      w.begin_object();
      w.field("index", index);
      w.field("bias_V", p.bias);
      w.field("current_A", p.current);
      w.field("stderr_A", p.stderr_mean);
      w.field("rel_error", p.rel_error);
      w.field("events", p.events);
      w.field("status", point_status_label(p));
      w.field("attempts", p.attempts);
      w.end_object();
    }
    w.end_array();
  }
  if (!s.error.empty()) {
    w.field("error", s.error);
    w.field("error_name", error_code_name(s.error_code));
  }
  if (!s.checkpoint_path.empty()) w.field("checkpoint", s.checkpoint_path);
}

int make_listener_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw IoError(ErrorCode::kIoFailure,
                  "server: unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    io_fail("bind(" + path + ")");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    io_fail("listen(" + path + ")");
  }
  return fd;
}

int make_listener_tcp(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    io_fail("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    io_fail("listen");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    *bound = ntohs(actual.sin_port);
  }
  return fd;
}

/// Budget for draining one response to a slow-reading client: a
/// connection that cannot take more bytes for this long is closed.
constexpr int kWriteTimeoutMs = 10'000;

/// Full write to a non-blocking fd with a wall budget: each time the
/// socket buffer fills, wait up to kWriteTimeoutMs for POLLOUT, also
/// waking on `wake_fd` (the stop self-pipe). Returns false — and the
/// caller hangs up — when the budget is spent on a slow-reading client,
/// the server is stopping, or the peer errors out.
bool write_all(int fd, const std::string& data, int wake_fd) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    pollfd p[2] = {};
    p[0].fd = fd;
    p[0].events = POLLOUT;
    p[1].fd = wake_fd;
    p[1].events = POLLIN;
    const int rc = ::poll(p, 2, kWriteTimeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;          // slow client: write budget spent
    if (p[1].revents != 0) return false;  // stop() — abandon the drain
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Server::Server(const ServerConfig& config, JobScheduler& scheduler)
    : config_(config), scheduler_(scheduler) {
  // Self-pipe first: every poll set built below watches its read end.
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) io_fail("pipe");
  pipe_rd_ = fds[0];
  pipe_wr_ = fds[1];
  // stop() may run in a signal handler: the write must never block, and
  // the fds must not leak into exec'd children.
  set_nonblocking(pipe_wr_);
  ::fcntl(pipe_rd_, F_SETFD, FD_CLOEXEC);
  ::fcntl(pipe_wr_, F_SETFD, FD_CLOEXEC);
  try {
    if (!config_.unix_path.empty()) {
      listen_fd_ = make_listener_unix(config_.unix_path);
    } else {
      listen_fd_ = make_listener_tcp(config_.tcp_port, &port_);
    }
  } catch (...) {
    ::close(pipe_rd_);
    ::close(pipe_wr_);
    throw;
  }
}

Server::~Server() {
  stop();
  // run() may never have been called; reap anything it left behind.
  join_workers();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(pipe_rd_);
  ::close(pipe_wr_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void Server::stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  // The byte is never drained, so the read end stays readable and EVERY
  // poller — accept loop and each connection — wakes at once, forever.
  // Both store and write are async-signal-safe.
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(pipe_wr_, &byte, 1);
}

void Server::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd p[2] = {};
    p[0].fd = listen_fd_;
    p[0].events = POLLIN;
    p[1].fd = pipe_rd_;
    p[1].events = POLLIN;
    // No timeout: the self-pipe wakes us on stop(), a connection wakes us
    // on arrival — nothing to tick for in between.
    const int rc = ::poll(p, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (p[1].revents != 0) break;  // stop()
    if ((p[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(workers_mu_);
    // Join the connections that ended since the last accept: a daemon
    // serving many short connections must not keep every finished thread
    // (and its stack) until shutdown.
    for (const std::thread::id id : finished_) {
      const auto it = std::find_if(
          workers_.begin(), workers_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      it->join();
      workers_.erase(it);
    }
    finished_.clear();
    workers_.emplace_back([this, fd] {
      handle_connection(fd);
      const std::lock_guard<std::mutex> done(workers_mu_);
      finished_.push_back(std::this_thread::get_id());
    });
  }
  join_workers();
}

void Server::join_workers() {
  // Join outside the lock: a returning connection thread takes it once to
  // report itself finished.
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  for (std::thread& t : workers) t.join();
  const std::lock_guard<std::mutex> lock(workers_mu_);
  finished_.clear();
}

void Server::handle_connection(int fd) {
  // Non-blocking plus poll-with-budget everywhere: a wedged peer can stall
  // neither read() nor write(), so this worker always notices stop() and
  // always frees itself from a dead client.
  set_nonblocking(fd);
  std::string buffer;
  char chunk[4096];
  const auto send = [&](const std::string& line) {
    return write_all(fd, line + "\n", pipe_rd_);
  };
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) break;
    pollfd p[2] = {};
    p[0].fd = fd;
    p[0].events = POLLIN;
    p[1].fd = pipe_rd_;
    p[1].events = POLLIN;
    const int rc = ::poll(
        p, 2, config_.idle_timeout_ms <= 0 ? -1 : config_.idle_timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) break;            // idle timeout: hang up on the silent peer
    if (p[1].revents != 0) break;  // stop()
    if ((p[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    if (n == 0) break;  // EOF
    buffer.append(chunk, static_cast<std::size_t>(n));
    // A line that exceeds the cap can never parse; reject and hang up
    // before buffering more of it.
    std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos && buffer.size() > config_.max_request_bytes) {
      send(error_response(ErrorCode::kParseJsonTooLarge,
                          "request line exceeds " +
                              std::to_string(config_.max_request_bytes) +
                              " bytes"));
      break;
    }
    bool closing = false;
    while (nl != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty()) {
        if (!send(handle_line(line))) {
          closing = true;
          break;
        }
        if (shutdown_requested_.load(std::memory_order_relaxed)) {
          stop();
          closing = true;
          break;
        }
      }
      nl = buffer.find('\n');
    }
    if (closing) break;
  }
  ::close(fd);
}

std::string Server::handle_line(const std::string& line) {
  RequestEnvelope env;
  try {
    JsonParseLimits limits;
    limits.max_bytes = config_.max_request_bytes;
    limits.max_depth = config_.max_json_depth;
    env = parse_request_envelope(line, limits);
  } catch (const Error& e) {
    return error_response(e.code(), e.what());
  }

  try {
    switch (env.verb) {
      case RequestEnvelope::Verb::kPing: {
        JsonWriter w = ok_response("ping");
        w.field("request_schema", RequestEnvelope::kSchema);
        w.field("result_schema", RunResult::kJsonSchema);
        w.end_object();
        return w.take();
      }
      case RequestEnvelope::Verb::kSubmit: {
        const std::uint64_t id = scheduler_.submit(env);
        // The submit response doubles as the first status probe.
        const JobStatus s = *scheduler_.status(id);
        JsonWriter w = ok_response("submit");
        w.field("job", s.id);
        w.field("fingerprint", fingerprint_hex(s.fingerprint));
        w.field("state", job_state_name(s.state));
        w.field("cached", s.cached);
        w.end_object();
        return w.take();
      }
      case RequestEnvelope::Verb::kStatus: {
        const std::optional<JobStatus> s = scheduler_.status(env.job_id);
        if (!s.has_value()) {
          return error_response(
              ErrorCode::kServeUnknownJob,
              "unknown job " + std::to_string(env.job_id));
        }
        JsonWriter w = ok_response("status");
        write_status(w, *s);
        w.end_object();
        return w.take();
      }
      case RequestEnvelope::Verb::kResult:
        // VERBATIM stored document (schema semsim.run_result/v3), so the
        // client's byte comparison sees exactly what a CLI
        // --canonical-json run writes. Copied here, outside the scheduler
        // lock, from the shared bytes.
        return *scheduler_.result(env.job_id);
      case RequestEnvelope::Verb::kCancel: {
        const bool requested = scheduler_.cancel(env.job_id);
        const std::optional<JobStatus> s = scheduler_.status(env.job_id);
        JsonWriter w = ok_response("cancel");
        w.field("job", env.job_id);
        w.field("cancelled", requested);
        if (s.has_value()) w.field("state", job_state_name(s->state));
        w.end_object();
        return w.take();
      }
      case RequestEnvelope::Verb::kStats: {
        const JobScheduler::Stats js = scheduler_.stats();
        const ResultCache::Stats cs = scheduler_.cache_stats();
        JsonWriter w = ok_response("stats");
        w.key("scheduler").begin_object();
        w.field("submitted", js.submitted);
        w.field("completed", js.completed);
        w.field("failed", js.failed);
        w.field("cancelled", js.cancelled);
        w.field("cache_hits", js.cache_hits);
        w.field("queued", js.queued);
        w.field("running", js.running);
        w.field("threads", js.threads);
        w.field("overload_rejected", js.overload_rejected);
        w.field("deadline_expired", js.deadline_expired);
        w.field("replayed", js.replayed);
        w.field("journal_truncated_bytes", js.journal_truncated_bytes);
        w.end_object();
        w.key("cache").begin_object();
        w.field("hits", cs.hits);
        w.field("misses", cs.misses);
        w.field("insertions", cs.insertions);
        w.field("evictions", cs.evictions);
        w.field("entries", cs.entries);
        w.field("bytes", cs.bytes);
        w.field("max_bytes", cs.max_bytes);
        w.end_object();
        w.end_object();
        return w.take();
      }
      case RequestEnvelope::Verb::kShutdown: {
        shutdown_requested_.store(true, std::memory_order_relaxed);
        JsonWriter w = ok_response("shutdown");
        w.field("stopping", true);
        w.end_object();
        return w.take();
      }
    }
    return error_response(ErrorCode::kServeBadRequest, "unhandled verb");
  } catch (const OverloadError& e) {
    // Admission-control reject: same error shape plus the back-off hint.
    return error_response(e.code(), e.what(), e.retry_after_ms());
  } catch (const Error& e) {
    return error_response(e.code(), e.what());
  } catch (const std::exception& e) {
    return error_response(ErrorCode::kUnknown, e.what());
  }
}

}  // namespace semsim
