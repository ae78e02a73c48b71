// served_mix: the real semsim_serve daemon (journal on) under two
// closed-loop clients that submit and wait the way `semsim_submit --wait`
// does.
//
// The only workload for the serve layer — admission, journal fsync, queue,
// result cache, encode. Cold jobs (journal, run, cache insert) sit beside
// cache hits, and small jobs queue behind 8-replica ensemble sweeps.
// Afterwards the daemon shuts down gracefully and restarts on the same
// journal; the restart time is the workload's set-up.
//
// The clients' wait policy (submit, backoff polling, result) is a copy of
// semsim_submit's, frozen here as part of the load generator. It is not a
// measured layer: a change to the policy in tools/semsim_submit.cpp does not
// move this workload.
//
// A hung daemon cannot hang the benchmark: a watchdog that runs for the
// whole workload kills the current daemon when any call into it outlives
// its budget, every later call then fails with a coded transport error, and
// the remaining jobs count as failed.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/random.h"
#include "harness.h"
#include "netlist/parser.h"
#include "serve/client.h"

extern char** environ;

namespace semsim::bench {
namespace {

/// examples/service/sweep.sem: the Fig. 1b SET, an 11-point sweep.
constexpr const char* kSweepSem =
    "num ext 3\nnum nodes 4\njunc 1 1 4 1meg 1a\njunc 2 4 2 1meg 1a\n"
    "cap 3 4 3a\nvdc 3 0.0\nsymm 2\ntemp 5\nrecord 1 2\njumps 2000\n"
    "sweep 1 0.01 0.002\n";

constexpr unsigned kDaemonThreads = 2;
constexpr int kClients = 2;
/// Requests of a run, split evenly over the clients: about 100 per second
/// of the 15 s budget, and enough for a p99 with 12 samples beyond it. A
/// daemon lifetime stays near 5k connections, well below the
/// thread-per-connection limit (README, finding 6).
constexpr int kRequests = 1200;
constexpr std::int64_t kCallTimeoutNs = 10'000'000'000;
constexpr double kJobTimeoutS = 30.0;
/// The whole workload, restarts included; run.py kills it at 160 s.
constexpr double kWorkloadBudgetS = 120.0;

enum class Kind { kCold, kResubmit, kEnsemble };

struct Request {
  RequestEnvelope env;
  Kind kind = Kind::kCold;
  int original = -1;  ///< resubmits: index of the original in the client list
};

struct Outcome {
  bool done = false;
  bool cached = false;
  std::string doc;
  double latency_s = 0, submit_s = 0, status_s = 0, result_s = 0, sleep_s = 0;
  int polls = 0;
  int calls = 0;
};

/// One client's requests: exactly 70 % cold, 25 % resubmits of the same
/// client's earlier cold requests and 5 % ensembles, in seeded order, so
/// the simulated work is identical for every seed and only the order, the
/// run seeds and the jitter vary.
std::vector<Request> client_requests(std::uint64_t seed, int client, int n) {
  Xoshiro256 rng(input_seed(seed, 4, static_cast<std::uint64_t>(client)));
  std::vector<Kind> kinds(static_cast<std::size_t>(n), Kind::kCold);
  const int n_resubmit = n / 4;
  const int n_ensemble = n / 20;
  for (int k = 0; k < n_resubmit + n_ensemble; ++k) {
    kinds[static_cast<std::size_t>(k)] =
        k < n_resubmit ? Kind::kResubmit : Kind::kEnsemble;
  }
  for (std::size_t k = kinds.size(); k > 1; --k) {
    std::swap(kinds[k - 1], kinds[rng.uniform_below(k)]);
  }
  // A resubmit needs an earlier cold request: open with one.
  const auto first_cold = std::find(kinds.begin(), kinds.end(), Kind::kCold);
  std::iter_swap(kinds.begin(), first_cold);

  std::vector<Request> out;
  std::vector<int> cold;
  for (int k = 0; k < n; ++k) {
    Request r;
    r.kind = kinds[static_cast<std::size_t>(k)];
    if (r.kind == Kind::kResubmit) {
      r.original = cold[rng.uniform_below(cold.size())];
      r.env = out[static_cast<std::size_t>(r.original)].env;
    } else {
      const std::uint64_t id =
          static_cast<std::uint64_t>(client) * 1000000 + k;
      r.env.verb = RequestEnvelope::Verb::kSubmit;
      r.env.netlist = kSweepSem;
      r.env.seed = input_seed(seed, 5, id);
      if (r.kind == Kind::kEnsemble) {
        // examples/ensemble/sweep_variability.sem's population.
        r.env.ensemble.enabled = true;
        r.env.ensemble.replicas = 8;
        r.env.ensemble.bg_charge.spread = 0.05;
        r.env.ensemble.resistance.spread = 0.03;
      } else {
        cold.push_back(k);
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

bool response_ok(const std::string& line) {
  try {
    const JsonValue* ok = JsonValue::parse(line).find("ok");
    return ok == nullptr || ok->as_bool();
  } catch (const Error&) {
    return false;
  }
}

/// The load generator's overload test: error.name == "serve.overloaded".
bool overload_reject(const std::string& line, std::uint64_t* retry_after_ms) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* ok = doc.find("ok");
    if (ok == nullptr || ok->as_bool()) return false;
    const JsonValue* err = doc.find("error");
    if (err == nullptr || err->at("name").as_string() != "serve.overloaded") {
      return false;
    }
    if (const JsonValue* hint = err->find("retry_after_ms")) {
      *retry_after_ms = static_cast<std::uint64_t>(hint->as_number());
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// The load generator's jitter: `base` mapped into [base/2, base].
std::chrono::milliseconds jittered(std::chrono::milliseconds base,
                                   std::uint64_t* state) {
  *state = splitmix64_mix(*state);
  const std::uint64_t half = static_cast<std::uint64_t>(base.count()) / 2;
  return std::chrono::milliseconds(
      static_cast<long long>(half + *state % (half + 1)));
}

/// Marks a call into the daemon as in flight on a watchdog slot for the
/// lifetime of the object.
class InCall {
 public:
  explicit InCall(std::atomic<std::int64_t>& slot) : slot_(slot) {
    slot_.store(now_ns());
  }
  ~InCall() { slot_.store(0); }
  InCall(const InCall&) = delete;
  InCall& operator=(const InCall&) = delete;

 private:
  std::atomic<std::int64_t>& slot_;
};

/// One semsim_serve process. The destructor kills and reaps it if it is
/// still running; nothing outlives the workload.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket,
         const std::string& spool, const std::string& log) {
    std::vector<std::string> args = {bin,       "--socket", socket,
                                     "--threads", std::to_string(kDaemonThreads),
                                     "--spool",   spool};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + bin);
    pid_.store(pid);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    kill();
    const pid_t pid = pid_.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }

  /// SIGKILL; safe from the watchdog thread.
  void kill() {
    const pid_t pid = pid_.load();
    if (pid <= 0) return;
    killed_.store(true);
    ::kill(pid, SIGKILL);
  }

  /// Waits up to `timeout_s` for the process to exit; true when reaped.
  bool reap(double timeout_s) {
    const pid_t pid = pid_.load();
    if (pid <= 0) return true;
    const std::int64_t t0 = now_ns();
    for (;;) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid_.store(0);
        return true;
      }
      if (seconds_since(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Graceful stop through the shutdown verb, the call watched on `slot`;
  /// SIGKILL when it does not exit in time. True only when the daemon
  /// stopped by itself: one the watchdog killed does not count.
  bool shutdown(const ServeClient& client, std::atomic<std::int64_t>& slot) {
    RequestEnvelope env;
    env.verb = RequestEnvelope::Verb::kShutdown;
    try {
      const InCall mark(slot);
      client.call(env);
    } catch (const Error&) {
    }
    if (reap(10.0)) return !killed_.load();
    kill();
    reap(5.0);
    return false;
  }

  /// A field of /proc/<pid>/status in kB (VmHWM, VmRSS), 0 when gone.
  double status_kb(const std::string& field) const {
    std::ifstream f("/proc/" + std::to_string(pid_.load()) + "/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind(field + ":", 0) == 0) {
        return std::strtod(line.c_str() + field.size() + 1, nullptr);
      }
    }
    return 0.0;
  }

 private:
  std::atomic<pid_t> pid_{0};
  std::atomic<bool> killed_{false};
};

/// Runs for the whole workload, across restarts. Kills the watched daemon
/// when a call marked on any slot outlives kCallTimeoutNs, or once the
/// workload has outlived kWorkloadBudgetS (and then every later daemon).
class Watchdog {
 public:
  /// Slots 0..kClients-1 belong to the client threads, this one to the
  /// main thread.
  static constexpr int kMainSlot = kClients;

  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// The daemon to kill from now on; nullptr before it is destroyed.
  void watch(Daemon* daemon) {
    const std::lock_guard<std::mutex> lock(mu_);
    daemon_ = daemon;
  }
  std::atomic<std::int64_t>& slot(int i) {
    return slots_[static_cast<std::size_t>(i)];
  }
  /// True once the watchdog has killed a daemon.
  bool fired() const { return fired_.load(); }

 private:
  void loop() {
    while (!stop_.load()) {
      const std::int64_t now = now_ns();
      bool expired = seconds_since(start_) > kWorkloadBudgetS;
      for (const std::atomic<std::int64_t>& s : slots_) {
        const std::int64_t started = s.load();
        expired |= started != 0 && now - started > kCallTimeoutNs;
      }
      if (expired) {
        const std::lock_guard<std::mutex> lock(mu_);
        if (daemon_ != nullptr) {
          daemon_->kill();
          fired_.store(true);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  const std::int64_t start_ = now_ns();
  std::atomic<std::int64_t> slots_[kClients + 1];  ///< call start, 0 = idle
  std::mutex mu_;
  Daemon* daemon_ = nullptr;  ///< guarded by mu_
  std::atomic<bool> fired_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last, so it starts after the members above
};

/// Submits one request and waits for its document the way `semsim_submit
/// --wait` does: submit (riding out overload on retry_after_ms), an
/// immediate status call, jittered exponential status backoff from 25 ms
/// to a 1 s cap, then the result. Every call is watched on `slot`.
Outcome submit_and_wait(Tracer& tracer, const ServeClient& client,
                        const RequestEnvelope& env,
                        std::atomic<std::int64_t>& slot) {
  Outcome o;
  const std::int64_t t0 = now_ns();
  const auto call = [&](const RequestEnvelope& e, const char* span,
                        double& acc) {
    Tracer::Scope s = tracer.span(span);
    ++o.calls;
    std::string line;
    {
      const InCall mark(slot);
      line = client.call(e);
    }
    acc += s.end();
    return line;
  };
  const auto sleep = [&](std::chrono::milliseconds d) {
    const std::int64_t s0 = now_ns();
    std::this_thread::sleep_for(d);
    o.sleep_s += seconds_since(s0);
  };
  std::uint64_t jitter = derive_stream_seed(env.seed, 0xB0FFULL);
  std::string line;
  std::chrono::milliseconds backoff(50);
  for (int attempt = 1;; ++attempt) {
    line = call(env, "serve.submit", o.submit_s);
    std::uint64_t retry_after_ms = 0;
    if (!overload_reject(line, &retry_after_ms) || attempt == 8) break;
    sleep(retry_after_ms > 0 ? std::chrono::milliseconds(retry_after_ms)
                             : jittered(backoff, &jitter));
    backoff = std::min(backoff * 2, std::chrono::milliseconds(2000));
  }
  if (!response_ok(line)) return o;
  const JsonValue submitted = JsonValue::parse(line);
  o.cached = submitted.at("cached").as_bool();

  RequestEnvelope poll;
  poll.verb = RequestEnvelope::Verb::kStatus;
  poll.job_id = static_cast<std::uint64_t>(submitted.at("job").as_number());
  backoff = std::chrono::milliseconds(25);
  std::string state;
  for (;;) {
    ++o.polls;
    state = JsonValue::parse(call(poll, "serve.status", o.status_s))
                .at("state")
                .as_string();
    if (state != "queued" && state != "running") break;
    if (seconds_since(t0) > kJobTimeoutS) return o;
    sleep(jittered(backoff, &jitter));
    backoff = std::min(backoff * 2, std::chrono::milliseconds(1000));
  }
  if (state != "done") return o;
  RequestEnvelope fetch;
  fetch.verb = RequestEnvelope::Verb::kResult;
  fetch.job_id = poll.job_id;
  o.doc = call(fetch, "serve.result", o.result_s);
  o.done = response_ok(o.doc);
  o.latency_s = seconds_since(t0);
  return o;
}

struct ClientRun {
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  std::string error;  ///< first transport error, if any
};

void client_loop(Tracer& tracer, const ServeClient& client, ClientRun& run,
                 Watchdog& watchdog, int id) {
  for (std::size_t k = 0; k < run.requests.size(); ++k) {
    Outcome o;
    if (!watchdog.fired()) {
      Tracer::set_trace("served_mix/client" + std::to_string(id) + "/" +
                        std::to_string(k));
      try {
        o = submit_and_wait(tracer, client, run.requests[k].env,
                            watchdog.slot(id));
      } catch (const std::exception& e) {
        if (run.error.empty()) run.error = e.what();
      }
    }
    run.outcomes.push_back(std::move(o));
  }
}

}  // namespace

void run_served_mix(const Options& opt, Tracer& tracer, Report& report) {
  if (opt.serve_bin.empty()) throw std::runtime_error("--serve-bin not set");
  const std::string dir = opt.out_dir + "/served_mix";
  std::filesystem::create_directories(dir);
  const std::string socket = dir + "/d" + std::to_string(::getpid()) + ".sock";
  const std::string spool = dir + "/spool-" + std::to_string(::getpid());
  const std::string log = dir + "/daemon.log";
  std::filesystem::remove_all(spool);
  // Removes the spool on every exit path, after the daemons are reaped.
  struct SpoolGuard {
    std::string path;
    ~SpoolGuard() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } spool_guard{spool};
  const ServeClient client = ServeClient::unix_socket(socket);

  ClientRun runs[kClients];
  for (int c = 0; c < kClients; ++c) {
    runs[c].requests = client_requests(opt.seed, c, kRequests / kClients);
  }

  std::optional<Daemon> daemon;
  Watchdog watchdog;  // declared after the daemon: joined before it dies
  std::atomic<std::int64_t>& main_slot = watchdog.slot(Watchdog::kMainSlot);

  // Spawns the daemon and pings until it answers; returns the seconds from
  // spawn to the first successful ping (journal replay included).
  const auto start_daemon = [&] {
    Tracer::Scope s = tracer.span("serve.spawn_to_ping");
    const std::int64_t t0 = now_ns();
    daemon.emplace(opt.serve_bin, socket, spool, log);
    watchdog.watch(&*daemon);
    RequestEnvelope ping;
    ping.verb = RequestEnvelope::Verb::kPing;
    for (;;) {
      try {
        const InCall mark(main_slot);
        if (response_ok(client.call(ping))) return s.end();
      } catch (const Error&) {
      }
      if (seconds_since(t0) > 20.0) {
        throw std::runtime_error("daemon never answered a ping");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto stop_daemon = [&](const std::string& what) {
    report.tally(daemon->shutdown(client, main_slot), what);
    watchdog.watch(nullptr);
    daemon.reset();
  };

  start_daemon();
  const double rss_ready_kb = daemon->status_kb("VmRSS");

  // ---- the closed loop --------------------------------------------------
  const std::int64_t loop0 = now_ns();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::ref(tracer), std::cref(client),
                           std::ref(runs[c]), std::ref(watchdog), c);
    }
    for (std::thread& t : clients) t.join();
  }
  const double loop_s = seconds_since(loop0);

  // ---- loop accounting --------------------------------------------------
  std::vector<double> latency;
  double sum_latency = 0, sum_submit = 0, sum_status = 0, sum_result = 0,
         sum_sleep = 0, events = 0, computed_events = 0;
  double polls = 0, calls = 0, jobs = 0;
  std::vector<double> submit_ms, status_ms, result_ms;
  DocCounts counts;
  std::string doc_hashes;  // every received document, in request order
  for (int c = 0; c < kClients; ++c) {
    ClientRun& r = runs[c];
    if (!r.error.empty()) report.note("client" + std::to_string(c) + "_error", r.error);
    for (std::size_t k = 0; k < r.outcomes.size(); ++k) {
      const Outcome& o = r.outcomes[k];
      const Request& q = r.requests[k];
      calls += o.calls;
      if (!report.tally(o.done, "job " + std::to_string(c) + "/" +
                                    std::to_string(k) + " did not finish done")) {
        continue;
      }
      ++jobs;
      latency.push_back(o.latency_s);
      sum_latency += o.latency_s;
      sum_submit += o.submit_s;
      sum_status += o.status_s;
      sum_result += o.result_s;
      sum_sleep += o.sleep_s;
      polls += o.polls;
      submit_ms.push_back(o.submit_s * 1e3);
      status_ms.push_back(o.status_s * 1e3 / std::max(o.polls, 1));
      result_ms.push_back(o.result_s * 1e3);
      doc_hashes += fnv1a_hex(o.doc);
      const JsonValue doc = JsonValue::parse(o.doc);
      const double ev = doc.at("events").as_number();
      events += ev;
      if (q.kind == Kind::kResubmit) {
        const Outcome& orig = r.outcomes[static_cast<std::size_t>(q.original)];
        report.tally(o.cached && o.doc == orig.doc,
                     "resubmit " + std::to_string(c) + "/" + std::to_string(k) +
                         " not a byte-identical cache hit");
      } else {
        computed_events += ev;
        counts.add(doc, o.doc.size());
      }
    }
  }
  counts.report_counts(report);
  report.hash("served_documents", fnv1a_hex(doc_hashes));
  report.count("jobs_done", jobs);
  report.count("requests", kRequests);

  RequestEnvelope stats_env;
  stats_env.verb = RequestEnvelope::Verb::kStats;
  double cache_hits = 0, submitted = 0;
  try {
    std::string line;
    {
      const InCall mark(main_slot);
      line = client.call(stats_env);
    }
    const JsonValue stats = JsonValue::parse(line);
    cache_hits = stats.at("scheduler").at("cache_hits").as_number();
    submitted = stats.at("scheduler").at("submitted").as_number();
  } catch (const Error& e) {
    report.tally(false, std::string("stats verb: ") + e.what());
  }
  const double hwm_kb = daemon->status_kb("VmHWM");
  const double journal_bytes =
      static_cast<double>(file_size(spool + "/journal.wal"));
  stop_daemon("daemon did not shut down gracefully");

  // ---- restarts on the finished journal ---------------------------------
  // Skipped once the watchdog has fired: the run has already failed, and
  // past the workload budget every new daemon would be killed on sight.
  // A restart is CPU-bound (journal replay, cache re-seed), so it is timed
  // in reference-host seconds. The job latencies above stay raw: they are
  // mostly the wait policy's timed sleeps, which host speed does not move.
  HostClock clock(kComputeBound);
  std::vector<double> restart_s;
  const int restarts = watchdog.fired() ? 0 : opt.trace ? 1 : 9;
  for (int k = 0; k < restarts; ++k) {
    Tracer::set_trace("served_mix/restart" + std::to_string(k));
    restart_s.push_back(clock.time([&] { start_daemon(); }));
    if (k == 0) {
      // Resubmits after the restart are cache hits with identical bytes.
      Xoshiro256 pick(input_seed(opt.seed, 7, 0));
      for (int i = 0; i < 10; ++i) {
        const ClientRun& r = runs[pick.uniform_below(kClients)];
        const std::size_t j = pick.uniform_below(r.requests.size());
        if (!r.outcomes[j].done) continue;
        Outcome o;
        try {
          o = submit_and_wait(tracer, client, r.requests[j].env, main_slot);
        } catch (const std::exception& e) {
          report.note("restart_error", e.what());
        }
        report.tally(o.done && o.cached && o.doc == r.outcomes[j].doc,
                     "post-restart resubmit not a byte-identical cache hit");
      }
    }
    stop_daemon("restarted daemon did not shut down gracefully");
  }

  // ---- oracle: served cold jobs equal in-process run() -----------------
  Tracer::set_trace("served_mix/oracle");
  std::vector<double> input_s, run_s, json_s;
  {
    Xoshiro256 pick(input_seed(opt.seed, 8, 0));
    int checked = 0;
    for (int tries = 0; checked < 30 && tries < 10000; ++tries) {
      const ClientRun& r = runs[pick.uniform_below(kClients)];
      const std::size_t j = pick.uniform_below(r.requests.size());
      if (r.requests[j].kind != Kind::kCold || !r.outcomes[j].done) continue;
      ++checked;
      RunRequest req;
      req.seed = r.requests[j].env.seed;
      req.threads = kThreads;
      const OpResult local = run_to_document(
          tracer, "sweep",
          [&tracer] {
            Tracer::Scope s = tracer.span("netlist.parse");
            return parse_simulation_input(std::string(kSweepSem));
          },
          req, dir + "/oracle.json");
      input_s.push_back(local.input_s);
      run_s.push_back(local.run_s);
      json_s.push_back(local.json_s);
      report.tally(local.doc == r.outcomes[j].doc,
                   "served document differs from in-process run()");
    }
    report.tally(checked == 30, "fewer than 30 cold jobs to check");
  }

  if (!opt.trace) {
    report.metric("wall_s", "s", latency);
    report.metric("events_per_s", "1/s", events / loop_s);
    report.metric("setup_s", "s", restart_s);
    report.metric("peak_rss_mb", "MiB", hwm_kb / 1024.0);
    report.metric("serve.submit_ms", "ms", submit_ms);
    report.metric("serve.status_ms", "ms", status_ms);
    report.metric("serve.result_ms", "ms", result_ms);
    report.metric("serve.jobs_per_s", "1/s", jobs / loop_s);
    report.metric("serve.latency_p99_s", "s", percentile(latency, 0.99));
    report_host(clock, report);
    return;
  }

  const auto share = [sum_latency](double x) {
    return sum_latency > 0 ? x / sum_latency : 0.0;
  };
  report.metric("serve.submit_frac", "ratio", share(sum_submit));
  report.metric("serve.status_frac", "ratio", share(sum_status));
  report.metric("serve.result_frac", "ratio", share(sum_result));
  report.metric("serve.poll_sleep_frac", "ratio", share(sum_sleep));
  report.metric("serve.polls_per_job", "count", jobs > 0 ? polls / jobs : 0.0);
  report.metric("serve.cache_hit_ratio", "ratio",
                submitted > 0 ? cache_hits / submitted : 0.0);
  report.metric("serve.journal_bytes_per_job", "B",
                jobs > 0 ? journal_bytes / jobs : 0.0);
  report.metric("serve.connections", "count", calls);
  report.metric("serve.rss_kb_per_connection", "KiB",
                calls > 0 ? (hwm_kb - rss_ready_kb) / calls : 0.0);
  report.metric("serve.submit_ms.p50", "ms", submit_ms);
  report.metric("serve.submit_ms.p99", "ms", percentile(submit_ms, 0.99),
                submit_ms);
  report.metric("serve.status_ms.p50", "ms", status_ms);
  report.metric("serve.result_ms.p50", "ms", result_ms);
  report.metric("netlist.input_s", "s", input_s);
  report.metric("analysis.run_s", "s", run_s);
  report.metric("io.to_json_s", "s", json_s);
  counts.report_ratios(report);

  Tracer::set_trace("served_mix/probe");
  SimulationInput in = parse_simulation_input(std::string(kSweepSem));
  report.metric("netlist.model_build_s", "s",
                time_model_build(tracer, in.circuit));
  in.circuit.set_source(in.sweep->source, Waveform::dc(-in.sweep->max));
  in.circuit.set_source(in.sweep->mirror, Waveform::dc(in.sweep->max));
  const double ns = probe_ns_per_event(tracer, "sweep", in.circuit,
                                       engine_options_for(in, DriverOptions{}));
  report.metric("core.ns_per_event", "ns", ns);
  report.metric("analysis.core_utilization", "ratio",
                ns * 1e-9 * computed_events / (kDaemonThreads * loop_s));
}

}  // namespace semsim::bench
