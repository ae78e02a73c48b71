// semsim_chaos — deterministic crash/recovery harness for semsim_serve.
//
//   semsim_chaos --daemon PATH --workdir DIR [--seed N] [--kill-cycles N]
//                [--trunc-cycles N] [--input FILE] [--sleep-ms N]
//
// Proves the durability contract of the serve journal end to end, from
// outside the process:
//
//   1. KILL PHASE — start the daemon, submit one slowed sweep job (a
//      kSleep fault plan stretches the run without touching its results:
//      fault plans are not fingerprinted), then SIGKILL the daemon at a
//      seeded random moment, restart it, and assert the job is still
//      known. After N kill/restart cycles the job must converge to a
//      document byte-identical to an in-process clean run, with exactly
//      one completion — no job lost, none double-completed.
//
//   2. TRUNCATION PHASE — with the daemon down, chop a seeded number of
//      bytes off the journal tail (simulating a torn append), restart,
//      and assert the daemon recovers: replay truncates to the last valid
//      record, re-runs the job if its done record was lost, and converges
//      to the same canonical bytes again.
//
// Everything is keyed on --seed (SplitMix64 chain), so a failing cycle
// reproduces exactly. Exit 0 = all cycles held; exit 1 = a property was
// violated (message on stderr); exit 2 = usage.
//
// The served and golden documents are left in DIR (golden.json,
// served-kill.json, served-trunc-<i>.json) so CI can additionally `cmp`
// them against a `semsim --canonical-json` run of the same input.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/api.h"
#include "base/random.h"
#include "flags.h"
#include "io/json.h"
#include "serve/client.h"

using namespace semsim;

namespace {

// Same shape as the test suite's sweep input: 6 bias points, a couple
// thousand events each — long enough to be mid-flight when the SIGKILL
// lands (with the sleep fault), short enough for many cycles per CI run.
constexpr char kDefaultInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 3 0.0
symm 2
temp 5
record 1 2
jumps 2000
sweep 1 0.01 0.002
)";

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "semsim_chaos: FAIL: %s\n", message.c_str());
  std::exit(1);
}

void note(const std::string& message) {
  std::printf("semsim_chaos: %s\n", message.c_str());
  std::fflush(stdout);
}

/// Next draw from the deterministic chaos stream: uniform in [lo, hi].
std::uint64_t draw(std::uint64_t* state, std::uint64_t lo, std::uint64_t hi) {
  *state = splitmix64_mix(*state);
  return lo + *state % (hi - lo + 1);
}

pid_t spawn_daemon(const std::string& daemon, const std::string& sock,
                   const std::string& spool, const std::string& log) {
  const pid_t pid = ::fork();
  if (pid < 0) fail("fork: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    // Child: daemon chatter goes to the log, appended across restarts.
    if (std::freopen(log.c_str(), "a", stdout) == nullptr) _exit(126);
    ::dup2(::fileno(stdout), 2);
    ::execl(daemon.c_str(), daemon.c_str(), "--socket", sock.c_str(),
            "--spool", spool.c_str(), "--threads", "2",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

/// Polls ping until the daemon answers (it may still be replaying a long
/// journal when the socket appears, so keep the budget generous).
void wait_ready(const std::string& sock, pid_t pid) {
  RequestEnvelope ping;
  ping.verb = RequestEnvelope::Verb::kPing;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      fail("daemon exited during startup (status " + std::to_string(status) +
           "); see daemon.log");
    }
    try {
      ServeClient::unix_socket(sock).call(ping);
      return;
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  fail("daemon did not answer ping within 30s");
}

void kill_hard(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

/// Graceful stop through the wire protocol, so the daemon's own shutdown
/// path (journal converged, running job checkpointed) is what ends it.
void stop_daemon(const std::string& sock, pid_t pid) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kShutdown;
  try {
    ServeClient::unix_socket(sock).call(env);
  } catch (const Error&) {
    ::kill(pid, SIGTERM);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
}

std::string wait_done(const std::string& sock, std::uint64_t job) {
  RequestEnvelope poll;
  poll.verb = RequestEnvelope::Verb::kStatus;
  poll.job_id = job;
  const ServeClient client = ServeClient::unix_socket(sock);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) {
      fail("job " + std::to_string(job) + " not terminal within 3 minutes");
    }
    const JsonValue status = JsonValue::parse(client.call(poll));
    const std::string state = status.at("state").as_string();
    if (state == "done") break;
    if (state == "failed" || state == "cancelled") {
      const JsonValue* err = status.find("error");
      fail("job " + std::to_string(job) + " ended " + state + ": " +
           (err ? err->as_string() : ""));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  RequestEnvelope fetch;
  fetch.verb = RequestEnvelope::Verb::kResult;
  fetch.job_id = job;
  return client.call(fetch);
}

/// Asserts the accounting invariant after convergence: the one submitted
/// job completed exactly once — never lost, never double-counted.
void check_stats(const std::string& sock) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kStats;
  const JsonValue doc =
      JsonValue::parse(ServeClient::unix_socket(sock).call(env));
  const JsonValue& sched = doc.at("scheduler");
  const auto field = [&](const char* name) {
    return static_cast<std::uint64_t>(sched.at(name).as_number());
  };
  if (field("submitted") != 1) {
    fail("expected exactly 1 submitted job, stats say " +
         std::to_string(field("submitted")));
  }
  if (field("completed") != 1) {
    fail("job completed " + std::to_string(field("completed")) +
         " times, expected exactly 1 (lost or double-completed)");
  }
  if (field("failed") != 0 || field("cancelled") != 0) {
    fail("unexpected failed/cancelled counts after convergence");
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text << '\n';
  if (!f) fail("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string daemon;
  std::string workdir;
  std::string input_path;
  std::uint64_t seed = 1;
  std::uint64_t kill_cycles = 5;
  std::uint64_t trunc_cycles = 5;
  std::uint64_t sleep_ms = 150;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (flag_value(a, "--daemon", argc, argv, i, &v)) {
      daemon = v;
    } else if (flag_value(a, "--workdir", argc, argv, i, &v)) {
      workdir = v;
    } else if (flag_value(a, "--input", argc, argv, i, &v)) {
      input_path = v;
    } else if (flag_value(a, "--seed", argc, argv, i, &v)) {
      seed = parse_u64("--seed", v);
    } else if (flag_value(a, "--kill-cycles", argc, argv, i, &v)) {
      kill_cycles = parse_u64("--kill-cycles", v);
    } else if (flag_value(a, "--trunc-cycles", argc, argv, i, &v)) {
      trunc_cycles = parse_u64("--trunc-cycles", v);
    } else if (flag_value(a, "--sleep-ms", argc, argv, i, &v)) {
      sleep_ms = parse_u64("--sleep-ms", v);
    } else {
      std::fprintf(stderr,
                   "usage: %s --daemon PATH --workdir DIR [--seed N]\n"
                   "       [--kill-cycles N] [--trunc-cycles N]\n"
                   "       [--input FILE] [--sleep-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (daemon.empty() || workdir.empty()) {
    std::fprintf(stderr, "semsim_chaos: --daemon and --workdir required\n");
    return 2;
  }

  std::string netlist = kDefaultInput;
  if (!input_path.empty()) {
    std::ifstream f(input_path, std::ios::binary);
    if (!f) fail("cannot read " + input_path);
    std::ostringstream text;
    text << f.rdbuf();
    netlist = text.str();
  }

  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  const std::string sock = workdir + "/chaos.sock";
  const std::string spool = workdir + "/spool";
  const std::string journal = spool + "/journal.wal";
  const std::string log = workdir + "/daemon.log";
  std::uint64_t chaos = splitmix64_mix(seed + 0xC4A05ULL);

  // Golden: the same run, in process, no daemon involved. The sleep fault
  // is absent here — it is not fingerprinted and never affects results, so
  // the served document must match these bytes exactly.
  note("computing golden document in-process");
  std::string golden;
  try {
    RunRequest req;
    req.input = parse_simulation_input(netlist);
    req.seed = seed;
    golden = run(req).to_json(/*canonical=*/true);
  } catch (const Error& e) {
    fail(std::string("golden run failed: ") + e.what());
  }
  write_file(workdir + "/golden.json", golden);

  // ---- phase 1: seeded SIGKILL mid-population -------------------------
  std::uint64_t job = 0;
  for (std::uint64_t cycle = 0; cycle < kill_cycles; ++cycle) {
    const pid_t pid = spawn_daemon(daemon, sock, spool, log);
    wait_ready(sock, pid);
    if (cycle == 0) {
      RequestEnvelope env;
      env.verb = RequestEnvelope::Verb::kSubmit;
      env.netlist = netlist;
      env.seed = seed;
      FaultSpec slow;  // stretch every unit so kills land mid-run
      slow.kind = FaultKind::kSleep;
      slow.at_event = 50;
      slow.millis = static_cast<std::uint32_t>(sleep_ms);
      env.fault.faults.push_back(slow);
      const JsonValue resp =
          JsonValue::parse(ServeClient::unix_socket(sock).call(env));
      if (!resp.at("ok").as_bool()) fail("submit rejected");
      job = static_cast<std::uint64_t>(resp.at("job").as_number());
      note("submitted job " + std::to_string(job));
    } else {
      // The previous SIGKILL must not have lost the job.
      RequestEnvelope q;
      q.verb = RequestEnvelope::Verb::kStatus;
      q.job_id = job;
      const JsonValue resp =
          JsonValue::parse(ServeClient::unix_socket(sock).call(q));
      if (!resp.at("ok").as_bool()) {
        fail("job " + std::to_string(job) + " lost after kill cycle " +
             std::to_string(cycle));
      }
      note("cycle " + std::to_string(cycle) + ": job survived as '" +
           resp.at("state").as_string() + "'");
    }
    const std::uint64_t grace = draw(&chaos, 30, 400);
    std::this_thread::sleep_for(std::chrono::milliseconds(grace));
    note("cycle " + std::to_string(cycle) + ": SIGKILL after " +
         std::to_string(grace) + "ms");
    kill_hard(pid);
    if (!std::filesystem::exists(journal)) {
      fail("journal file missing after kill");
    }
  }

  // Final restart: let the job converge, then compare bytes.
  {
    const pid_t pid = spawn_daemon(daemon, sock, spool, log);
    wait_ready(sock, pid);
    const std::string served = wait_done(sock, job);
    write_file(workdir + "/served-kill.json", served);
    if (served != golden) {
      fail("kill phase: served document differs from golden "
           "(see served-kill.json vs golden.json)");
    }
    check_stats(sock);
    note("kill phase: converged to golden bytes after " +
         std::to_string(kill_cycles) + " SIGKILLs");
    stop_daemon(sock, pid);
  }

  // ---- phase 2: seeded torn-tail truncation ---------------------------
  for (std::uint64_t cycle = 0; cycle < trunc_cycles; ++cycle) {
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(journal, ec);
    if (ec) fail("cannot stat journal: " + ec.message());
    if (size > 16) {  // never chop the 16-byte header itself
      const std::uint64_t chop = draw(&chaos, 1, std::min<std::uint64_t>(
                                                     64, size - 16));
      if (::truncate(journal.c_str(),
                     static_cast<off_t>(size - chop)) != 0) {
        fail("truncate: " + std::string(std::strerror(errno)));
      }
      note("cycle " + std::to_string(cycle) + ": tore " +
           std::to_string(chop) + " bytes off the journal tail");
    }
    const pid_t pid = spawn_daemon(daemon, sock, spool, log);
    wait_ready(sock, pid);
    // If the tear ate the done record the daemon re-runs the job; either
    // way it must converge to the same canonical bytes.
    const std::string served = wait_done(sock, job);
    write_file(workdir + "/served-trunc-" + std::to_string(cycle) + ".json",
               served);
    if (served != golden) {
      fail("truncation cycle " + std::to_string(cycle) +
           ": served document differs from golden");
    }
    check_stats(sock);
    stop_daemon(sock, pid);
  }
  note("truncation phase: recovered and re-converged " +
       std::to_string(trunc_cycles) + " times");

  note("PASS: no job lost, none double-completed, all documents "
       "byte-identical to golden");
  return 0;
}
