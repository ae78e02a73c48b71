// semsim_submit — client for the semsim_serve daemon.
//
//   semsim_submit --socket /tmp/semsim.sock submit input.sem [run flags]
//                 [--priority N] [--wait] [--json FILE]
//   semsim_submit --socket PATH status JOB
//   semsim_submit --socket PATH result JOB [--json FILE]
//   semsim_submit --socket PATH cancel JOB
//   semsim_submit --socket PATH ping | stats | shutdown
//   semsim_submit --tcp PORT ...
//
// submit reads the input FILE and ships its TEXT to the daemon (the daemon
// parses it with the same strict parser the CLI uses); it takes the same
// run flags as semsim (tools/flags.h). With --wait, polls status until the
// job is terminal and then fetches the result; the fetched document is the
// daemon's stored canonical RunResult, byte-identical to
// `semsim input.sem --canonical-json`. Responses print to stdout verbatim
// (one JSON line); --json additionally writes the result document to FILE.
//
// Exit codes: 0 ok; 1 transport/protocol error; 2 usage, including a flag
// value semsim would reject (checked before connecting); 3 the daemon
// answered with an error response; 4 --wait saw the job end failed; 5
// --wait saw the job end cancelled.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "base/random.h"
#include "flags.h"
#include "io/json.h"
#include "serve/client.h"

using namespace semsim;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s (--socket PATH | --tcp PORT) VERB [ARGS] [FLAGS]\n"
      "verbs:\n"
      "  submit FILE [run flags] [--priority N] [--wait] [--json FILE]\n"
      "              [--deadline-ms N] [--client NAME]\n"
      "  status JOB     job state + streamed partial results\n"
      "  result JOB     completed job's canonical result document [--json F]\n"
      "  cancel JOB     stop a queued/running job (checkpointed if spooled)\n"
      "  ping | stats | shutdown\n"
      "flags:\n"
      "  --priority N     higher runs first, in [-1000000, 1000000]\n"
      "  --deadline-ms N  wall budget from submit (queue wait included); an\n"
      "                   expired job fails with serve.deadline_exceeded\n"
      "  --client NAME    client identity for per-client in-flight caps\n"
      "  --wait           poll until terminal, then fetch the result; polls\n"
      "                   back off exponentially with seeded jitter, and an\n"
      "                   overloaded submit is retried after the daemon's\n"
      "                   retry_after_ms hint\n"
      "%s",
      argv0, kRunFlagsUsage);
}

/// True when the response line is an ok "semsim.response/v1" object (the
/// result verb's verbatim document also counts as success).
bool response_ok(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* ok = doc.find("ok");
    return ok == nullptr || ok->as_bool();
  } catch (const Error&) {
    return false;
  }
}

/// True when the response is an admission-control reject
/// (error.name == "serve.overloaded"); extracts the daemon's
/// retry_after_ms hint when present.
bool overload_reject(const std::string& line, std::uint64_t* retry_after_ms) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* ok = doc.find("ok");
    if (ok == nullptr || ok->as_bool()) return false;
    const JsonValue* err = doc.find("error");
    if (err == nullptr) return false;
    const JsonValue* name = err->find("name");
    if (name == nullptr || name->as_string() != "serve.overloaded") {
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

/// Deterministic jitter: maps `base` into [base/2, base], stepping the
/// SplitMix64 state each call. Seeded from the envelope seed, so a given
/// invocation always sleeps the same schedule, while clients with
/// different seeds desynchronize instead of retrying in lockstep.
std::chrono::milliseconds jittered(std::chrono::milliseconds base,
                                   std::uint64_t* state) {
  *state = splitmix64_mix(*state);
  const std::uint64_t half = static_cast<std::uint64_t>(base.count()) / 2;
  return std::chrono::milliseconds(
      static_cast<long long>(half + *state % (half + 1)));
}

int write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "semsim_submit: cannot write %s\n", path.c_str());
    return 1;
  }
  f << text << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  bool have_endpoint = false;
  std::string verb;
  std::string verb_arg;  // input file (submit) or job id
  std::string json_path;
  bool wait = false;
  RequestEnvelope env;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (flag_value(a, "--socket", argc, argv, i, &v)) {
      unix_path = v;
      have_endpoint = true;
    } else if (flag_value(a, "--tcp", argc, argv, i, &v)) {
      const std::uint64_t port = parse_u64("--tcp", v);
      if (port > 65535) {
        std::fprintf(stderr, "--tcp: port out of range: %s\n", v.c_str());
        return 2;
      }
      tcp_port = static_cast<std::uint16_t>(port);
      have_endpoint = true;
    } else if (parse_run_flag(a, argc, argv, i, &env, &env.repeats)) {
      // handled
    } else if (flag_value(a, "--priority", argc, argv, i, &v)) {
      // The envelope's priority range (io/envelope.cpp).
      env.priority = static_cast<int>(
          parse_int("--priority", v, -1000000, 1000000));
    } else if (a == "--wait") {
      wait = true;
    } else if (flag_value(a, "--deadline-ms", argc, argv, i, &v)) {
      env.deadline_ms = parse_u64("--deadline-ms", v);
    } else if (flag_value(a, "--client", argc, argv, i, &v)) {
      env.client = v;
    } else if (flag_value(a, "--json", argc, argv, i, &v)) {
      json_path = v;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] != '-' && verb.empty()) {
      verb = a;
    } else if (!a.empty() && a[0] != '-' && verb_arg.empty()) {
      verb_arg = a;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_endpoint || verb.empty()) {
    usage(argv[0]);
    return 2;
  }

  if (verb == "ping") {
    env.verb = RequestEnvelope::Verb::kPing;
  } else if (verb == "submit") {
    env.verb = RequestEnvelope::Verb::kSubmit;
  } else if (verb == "status") {
    env.verb = RequestEnvelope::Verb::kStatus;
  } else if (verb == "result") {
    env.verb = RequestEnvelope::Verb::kResult;
  } else if (verb == "cancel") {
    env.verb = RequestEnvelope::Verb::kCancel;
  } else if (verb == "stats") {
    env.verb = RequestEnvelope::Verb::kStats;
  } else if (verb == "shutdown") {
    env.verb = RequestEnvelope::Verb::kShutdown;
  } else {
    std::fprintf(stderr, "unknown verb: %s\n", verb.c_str());
    return 2;
  }

  if (env.verb == RequestEnvelope::Verb::kSubmit) {
    if (verb_arg.empty()) {
      std::fprintf(stderr, "submit: missing input file\n");
      return 2;
    }
    std::ifstream f(verb_arg, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "submit: cannot read %s\n", verb_arg.c_str());
      return 2;
    }
    std::ostringstream text;
    text << f.rdbuf();
    env.netlist = text.str();
  } else if (env.verb == RequestEnvelope::Verb::kStatus ||
             env.verb == RequestEnvelope::Verb::kResult ||
             env.verb == RequestEnvelope::Verb::kCancel) {
    if (verb_arg.empty()) {
      std::fprintf(stderr, "%s: missing job id\n", verb.c_str());
      return 2;
    }
    env.job_id = parse_u64(verb.c_str(), verb_arg);
  }

  try {
    const ServeClient client = unix_path.empty()
                                   ? ServeClient::tcp(tcp_port)
                                   : ServeClient::unix_socket(unix_path);
    // Jitter stream for every sleep below; keyed by the submit seed so a
    // rerun reproduces the exact schedule.
    std::uint64_t jitter_state = derive_stream_seed(env.seed, 0xB0FFULL);
    std::string line;
    if (env.verb == RequestEnvelope::Verb::kSubmit && wait) {
      // A waiting submit rides out transient overload: honor the daemon's
      // retry_after_ms hint, fall back to capped exponential backoff.
      std::chrono::milliseconds backoff(50);
      constexpr std::chrono::milliseconds kBackoffCap(2000);
      constexpr int kMaxAttempts = 8;
      for (int attempt = 1;; ++attempt) {
        line = client.call(env);
        std::uint64_t retry_after_ms = 0;
        if (!overload_reject(line, &retry_after_ms) ||
            attempt == kMaxAttempts) {
          break;
        }
        const std::chrono::milliseconds delay =
            retry_after_ms > 0 ? std::chrono::milliseconds(retry_after_ms)
                               : jittered(backoff, &jitter_state);
        std::fprintf(stderr, "# overloaded, retrying in %lld ms (attempt %d)\n",
                     static_cast<long long>(delay.count()), attempt);
        std::this_thread::sleep_for(delay);
        backoff = std::min(backoff * 2, kBackoffCap);
      }
    } else {
      line = client.call(env);
    }
    std::printf("%s\n", line.c_str());
    if (!response_ok(line)) return 3;

    if (env.verb == RequestEnvelope::Verb::kSubmit && wait) {
      const JsonValue doc = JsonValue::parse(line);
      const std::uint64_t job =
          static_cast<std::uint64_t>(doc.at("job").as_number());
      RequestEnvelope poll;
      poll.verb = RequestEnvelope::Verb::kStatus;
      poll.job_id = job;
      std::string state;
      // Exponential backoff with seeded jitter: a short job is picked up
      // within a few quick polls, a long ensemble run settles to about one
      // status call per second, and concurrent waiters spread out instead
      // of polling in lockstep.
      std::chrono::milliseconds backoff(25);
      constexpr std::chrono::milliseconds kBackoffCap(1000);
      std::uint64_t replicas_seen = 0;
      for (;;) {
        const std::string status_line = client.call(poll);
        const JsonValue status = JsonValue::parse(status_line);
        state = status.at("state").as_string();
        // Ensemble jobs stream per-replica progress (JobProgressSink on the
        // daemon side); narrate it so a long wait is not silent.
        if (const JsonValue* total = status.find("replicas_total")) {
          const JsonValue* done = status.find("replicas_done");
          const std::uint64_t n_done =
              done == nullptr ? 0
                              : static_cast<std::uint64_t>(done->as_number());
          if (n_done != replicas_seen) {
            replicas_seen = n_done;
            std::fprintf(stderr, "# replicas %llu/%llu\n",
                         static_cast<unsigned long long>(n_done),
                         static_cast<unsigned long long>(
                             static_cast<std::uint64_t>(total->as_number())));
          }
        }
        if (state != "queued" && state != "running") break;
        std::this_thread::sleep_for(jittered(backoff, &jitter_state));
        backoff = std::min(backoff * 2, kBackoffCap);
      }
      if (state == "failed") return 4;
      if (state == "cancelled") return 5;
      RequestEnvelope fetch;
      fetch.verb = RequestEnvelope::Verb::kResult;
      fetch.job_id = job;
      line = client.call(fetch);
      std::printf("%s\n", line.c_str());
      if (!response_ok(line)) return 3;
    }
    if (!json_path.empty() &&
        (env.verb == RequestEnvelope::Verb::kResult ||
         (env.verb == RequestEnvelope::Verb::kSubmit && wait))) {
      const int rc = write_file(json_path, line);
      if (rc != 0) return rc;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "semsim_submit: %s\n", e.what());
    return 1;
  }
  return 0;
}
