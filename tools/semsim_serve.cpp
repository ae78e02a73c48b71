// semsim_serve — simulation-as-a-service daemon.
//
//   semsim_serve --socket /tmp/semsim.sock [--threads N]
//                [--cache-mb N] [--spool DIR] [--max-request-mb N]
//   semsim_serve --tcp PORT ...      # loopback only; PORT 0 = ephemeral
//
// Accepts newline-delimited JSON requests (schema semsim.request/v1, see
// src/io/envelope.h) and runs submitted jobs through the same
// RunRequest -> run() path as the semsim CLI, sharded across one shared
// thread pool — served results are bitwise identical to local runs
// (tests/test_serve.cpp). Completed canonical documents are cached by run
// fingerprint (plus a non-default retry policy); identical resubmits are
// answered instantly. With --spool,
// jobs checkpoint per work unit: cancellation and daemon shutdown leave
// resumable spool files behind.
//
// SIGINT/SIGTERM and the `shutdown` verb stop the daemon gracefully: the
// running job is cancelled at its next work-unit boundary (checkpointing
// what finished), then the process exits 0. Server::stop() is
// async-signal-safe (self-pipe), so the handler calls it directly — no
// polling watcher thread.
//
// With --journal (default <spool>/journal.wal when --spool is given) every
// job transition is write-ahead logged: a crashed daemon restarted on the
// same journal replays its job table, re-enqueues pending jobs, and
// resumes interrupted ones from their spool checkpoints
// (tools/semsim_chaos.cpp exercises this under repeated SIGKILL).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "flags.h"
#include "guard/exit_codes.h"
#include "serve/server.h"

using namespace semsim;

namespace {

std::atomic<Server*> g_server{nullptr};
void on_signal(int) {
  if (Server* s = g_server.load(std::memory_order_relaxed)) s->stop();
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s (--socket PATH | --tcp PORT) [--threads N] [--cache-mb N]\n"
      "          [--spool DIR] [--journal PATH] [--queue-depth N]\n"
      "          [--inflight-per-client N] [--retry-after-ms N]\n"
      "          [--idle-timeout-ms N] [--max-request-mb N]\n"
      "  --socket PATH      listen on a Unix-domain socket at PATH\n"
      "  --tcp PORT         listen on 127.0.0.1:PORT (0 = pick a free port,\n"
      "                     printed on startup)\n"
      "  --threads N        worker threads shared by all jobs (default 1,\n"
      "                     0 = all cores); never affects results\n"
      "  --cache-mb N       result-cache budget in MiB (default 64, 0 off)\n"
      "  --spool DIR        checkpoint jobs to DIR/job-<key>.ckpt (key: the\n"
      "                     fingerprint, plus a non-default retry policy);\n"
      "                     cancelled/interrupted jobs resume on resubmit\n"
      "  --journal PATH     write-ahead job journal; a restarted daemon\n"
      "                     replays it and no acknowledged job is lost\n"
      "                     (default: DIR/journal.wal when --spool given;\n"
      "                     'none' disables)\n"
      "  --queue-depth N    reject submits beyond N queued jobs with the\n"
      "                     coded serve.overloaded (default 256, 0 = off)\n"
      "  --inflight-per-client N  per-client non-terminal job cap\n"
      "                     (default 64, 0 = off)\n"
      "  --retry-after-ms N back-off hint carried by overload rejections\n"
      "                     (default 250)\n"
      "  --idle-timeout-ms N  hang up on silent connections after N ms\n"
      "                     (default 60000, 0 = never)\n"
      "  --max-request-mb N request size cap in MiB (default 4)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig server_cfg;
  SchedulerConfig sched_cfg;
  std::string journal;  ///< "" = derive from --spool; "none" = off
  bool have_endpoint = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (flag_value(a, "--socket", argc, argv, i, &v)) {
      server_cfg.unix_path = v;
      have_endpoint = true;
    } else if (flag_value(a, "--tcp", argc, argv, i, &v)) {
      const std::uint64_t port = parse_u64("--tcp", v);
      if (port > 65535) {
        std::fprintf(stderr, "--tcp: port out of range: %s\n", v.c_str());
        return kExitUsage;
      }
      server_cfg.tcp_port = static_cast<std::uint16_t>(port);
      have_endpoint = true;
    } else if (flag_value(a, "--threads", argc, argv, i, &v)) {
      sched_cfg.threads = static_cast<unsigned>(parse_u64("--threads", v));
    } else if (flag_value(a, "--cache-mb", argc, argv, i, &v)) {
      sched_cfg.cache_bytes = parse_u64("--cache-mb", v) << 20;
    } else if (flag_value(a, "--spool", argc, argv, i, &v)) {
      sched_cfg.spool_dir = v;
    } else if (flag_value(a, "--journal", argc, argv, i, &v)) {
      journal = v;
    } else if (flag_value(a, "--queue-depth", argc, argv, i, &v)) {
      sched_cfg.max_queue_depth =
          static_cast<std::size_t>(parse_u64("--queue-depth", v));
    } else if (flag_value(a, "--inflight-per-client", argc, argv, i, &v)) {
      sched_cfg.max_inflight_per_client =
          static_cast<std::size_t>(parse_u64("--inflight-per-client", v));
    } else if (flag_value(a, "--retry-after-ms", argc, argv, i, &v)) {
      sched_cfg.retry_after_ms = parse_u64("--retry-after-ms", v);
    } else if (flag_value(a, "--idle-timeout-ms", argc, argv, i, &v)) {
      server_cfg.idle_timeout_ms =
          static_cast<int>(parse_u64("--idle-timeout-ms", v));
    } else if (flag_value(a, "--max-request-mb", argc, argv, i, &v)) {
      const std::uint64_t mb = parse_u64("--max-request-mb", v);
      if (mb == 0) {
        std::fprintf(stderr, "--max-request-mb: must be > 0\n");
        return kExitUsage;
      }
      server_cfg.max_request_bytes = mb << 20;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      usage(argv[0]);
      return kExitUsage;
    }
  }
  if (!have_endpoint) {
    usage(argv[0]);
    return kExitUsage;
  }
  // Durability defaults on whenever there is a spool to recover into.
  if (journal == "none") {
    sched_cfg.journal_path.clear();
  } else if (!journal.empty()) {
    sched_cfg.journal_path = journal;
  } else if (!sched_cfg.spool_dir.empty()) {
    sched_cfg.journal_path = sched_cfg.spool_dir + "/journal.wal";
  }

  try {
    JobScheduler scheduler(sched_cfg);
    Server server(server_cfg, scheduler);

    // stop() is async-signal-safe, so the handler calls it directly.
    g_server.store(&server, std::memory_order_relaxed);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // A client that hangs up mid-response must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    if (!server_cfg.unix_path.empty()) {
      std::printf("semsim_serve: listening on %s (%u threads)\n",
                  server_cfg.unix_path.c_str(), sched_cfg.threads);
    } else {
      std::printf("semsim_serve: listening on 127.0.0.1:%u (%u threads)\n",
                  server.port(), sched_cfg.threads);
    }
    std::fflush(stdout);

    server.run();  // returns on signal or `shutdown` verb
    g_server.store(nullptr, std::memory_order_relaxed);

    // Cancels + checkpoints the running job, marks queued jobs cancelled.
    scheduler.shutdown();
    std::printf("semsim_serve: stopped\n");
  } catch (const Error& e) {
    std::fprintf(stderr, "semsim_serve: %s\n", e.what());
    return exit_code_for(e);
  } catch (const std::exception& e) {
    // Uncoded failures (std::system_error from a thread that could not
    // start, bad_alloc) still end with a message and a coded exit.
    std::fprintf(stderr, "semsim_serve: %s\n", e.what());
    return kExitFailure;
  }
  return kExitOk;
}
