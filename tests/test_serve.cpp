// Service layer (src/serve/) end to end: hardened JSON limits, the
// request-envelope codec, the fingerprint-keyed result cache, the job
// scheduler (bitwise served-vs-direct equivalence at 1 and 8 worker
// threads, including a fault-injected degraded case), cancellation and
// shutdown leaving resumable spool checkpoints, and the socket server's
// wire protocol.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/api.h"
#include "base/error.h"
#include "io/envelope.h"
#include "io/json.h"
#include "netlist/parser.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace semsim {
namespace {

// Small set-style sweep: 6 bias points, a couple thousand events each —
// fast enough to run many times per suite, structured enough to exercise
// the full sweep path (symm mirror, gate capacitor).
constexpr char kSweepInput[] = R"(
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

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::kNone;
}

// ---- hardened JSON parsing (network input) -------------------------------

TEST(JsonLimits, DeepNestingIsRejectedNotCrashed) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  JsonParseLimits limits;
  limits.max_depth = 16;
  EXPECT_EQ(code_of([&] { JsonValue::parse(deep, limits); }),
            ErrorCode::kParseJsonTooDeep);
  // Within the cap the same shape parses fine.
  limits.max_depth = 64;
  EXPECT_NO_THROW(JsonValue::parse(deep, limits));
}

TEST(JsonLimits, DefaultParseStillCapsPathologicalDepth) {
  // The no-limits overload keeps a generous default depth cap, so even
  // internal callers cannot be blown off the parser stack.
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += "[";
  for (int i = 0; i < 5000; ++i) deep += "]";
  EXPECT_EQ(code_of([&] { JsonValue::parse(deep); }),
            ErrorCode::kParseJsonTooDeep);
}

TEST(JsonLimits, OversizeDocumentIsRejected) {
  JsonParseLimits limits;
  limits.max_bytes = 32;
  const std::string big =
      "{\"key\":\"" + std::string(100, 'x') + "\"}";
  EXPECT_EQ(code_of([&] { JsonValue::parse(big, limits); }),
            ErrorCode::kParseJsonTooLarge);
  EXPECT_NO_THROW(JsonValue::parse("{\"k\":1}", limits));
}

// ---- request envelope codec ----------------------------------------------

TEST(Envelope, SubmitRoundTripsEveryField) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.priority = -3;
  env.netlist = kSweepInput;
  env.seed = 42;
  env.adaptive = false;
  env.fast_rates = true;
  env.repeats = 5;
  env.stop.max_events = 9999;
  env.stop.target_rel_error = 0.125;
  env.stop.check_interval = 64;
  env.retry.strict = true;
  env.retry.max_attempts = 7;
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 2;
  f.at_event = 100;
  f.sticky = true;
  env.fault.faults.push_back(f);

  const RequestEnvelope back =
      parse_request_envelope(encode_request_envelope(env));
  EXPECT_EQ(back.verb, RequestEnvelope::Verb::kSubmit);
  EXPECT_EQ(back.priority, -3);
  EXPECT_EQ(back.netlist, kSweepInput);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_FALSE(back.adaptive);
  EXPECT_TRUE(back.fast_rates);
  EXPECT_EQ(back.repeats, 5u);
  EXPECT_EQ(back.stop.max_events, 9999u);
  EXPECT_EQ(back.stop.target_rel_error, 0.125);
  EXPECT_EQ(back.stop.check_interval, 64u);
  EXPECT_TRUE(back.retry.strict);
  EXPECT_EQ(back.retry.max_attempts, 7u);
  ASSERT_EQ(back.fault.faults.size(), 1u);
  EXPECT_EQ(back.fault.faults[0].kind, FaultKind::kNanRate);
  EXPECT_EQ(back.fault.faults[0].unit, 2u);
  EXPECT_EQ(back.fault.faults[0].at_event, 100u);
  EXPECT_TRUE(back.fault.faults[0].sticky);
}

TEST(Envelope, JobVerbsRoundTrip) {
  for (const auto verb :
       {RequestEnvelope::Verb::kStatus, RequestEnvelope::Verb::kResult,
        RequestEnvelope::Verb::kCancel}) {
    RequestEnvelope env;
    env.verb = verb;
    env.job_id = 17;
    const RequestEnvelope back =
        parse_request_envelope(encode_request_envelope(env));
    EXPECT_EQ(back.verb, verb);
    EXPECT_EQ(back.job_id, 17u);
  }
}

TEST(Envelope, MalformedRequestsAreCodedRejections) {
  // Wrong schema tag.
  EXPECT_THROW(
      parse_request_envelope(R"({"schema":"bogus/v9","verb":"ping"})"),
      ParseError);
  // Unknown verb.
  EXPECT_THROW(parse_request_envelope(
                   R"({"schema":"semsim.request/v1","verb":"explode"})"),
               ParseError);
  // submit without a netlist.
  EXPECT_THROW(parse_request_envelope(
                   R"({"schema":"semsim.request/v1","verb":"submit"})"),
               ParseError);
  // Fractional job id.
  EXPECT_THROW(
      parse_request_envelope(
          R"({"schema":"semsim.request/v1","verb":"status","job":1.5})"),
      ParseError);
  // Out-of-range priority.
  EXPECT_THROW(parse_request_envelope(
                   R"({"schema":"semsim.request/v1","verb":"submit",)"
                   R"("netlist":"x","priority":1e9})"),
               ParseError);
  // Not JSON at all.
  EXPECT_THROW(parse_request_envelope("hello"), Error);
}

// ---- result cache ---------------------------------------------------------

TEST(ResultCacheTest, CountsHitsAndMissesAndServesBytes) {
  ResultCache cache(1024);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.insert(1, "document-one");
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "document-one");
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, std::string("document-one").size());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  ResultCache cache(20);
  cache.insert(1, std::string(8, 'a'));
  cache.insert(2, std::string(8, 'b'));
  // Touch 1 so 2 is the LRU victim.
  EXPECT_TRUE(cache.lookup(1).has_value());
  cache.insert(3, std::string(8, 'c'));  // 24 bytes > 20: evict 2
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 20u);
}

TEST(ResultCacheTest, OversizedAndDisabledInsertsAreDropped) {
  ResultCache off(0);
  off.insert(1, "x");
  EXPECT_FALSE(off.lookup(1).has_value());
  ResultCache tiny(4);
  tiny.insert(2, "longer-than-budget");
  EXPECT_FALSE(tiny.lookup(2).has_value());
}

// ---- run fingerprint ------------------------------------------------------

RunRequest sweep_request(unsigned threads = 1, std::uint64_t seed = 7) {
  RunRequest req;
  req.input = parse_simulation_input(kSweepInput);
  req.seed = seed;
  req.threads = threads;
  return req;
}

TEST(Fingerprint, StableAcrossThreadCountsAndExposedInJson) {
  const std::uint64_t fp1 = sweep_request(1).fingerprint();
  const std::uint64_t fp8 = sweep_request(8).fingerprint();
  EXPECT_EQ(fp1, fp8);

  const RunResult res = run(sweep_request(2));
  EXPECT_EQ(res.fingerprint, fp1);
  const std::string doc = res.to_json();
  EXPECT_NE(doc.find("\"fingerprint\":\"" + fingerprint_hex(fp1) + "\""),
            std::string::npos);
}

TEST(Fingerprint, ChangesWithAnyResultAffectingOption) {
  const std::uint64_t base = sweep_request().fingerprint();

  EXPECT_NE(sweep_request(1, 8).fingerprint(), base);  // seed

  RunRequest req = sweep_request();
  req.adaptive = false;
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.fast_rates = true;  // approximate kernel => different trajectories
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.stop.target_rel_error = 0.05;
  req.stop.check_interval = 32;
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.input.repeats = 9;
  EXPECT_NE(req.fingerprint(), base);

  // Not fingerprinted: execution environment and observers.
  req = sweep_request();
  req.threads = 64;
  req.checkpoint_path = "/tmp/elsewhere.ckpt";
  EXPECT_EQ(req.fingerprint(), base);
}

TEST(CanonicalJson, PureFunctionOfRunIdentity) {
  const RunResult r1 = run(sweep_request(1));
  const RunResult r8 = run(sweep_request(8));
  // The default document differs (threads field); the canonical form is
  // byte-identical at any thread count.
  EXPECT_EQ(r1.to_json(true), r8.to_json(true));
  EXPECT_NE(r1.to_json(false), r8.to_json(false));
  EXPECT_EQ(r1.to_json(true).find("\"threads\""), std::string::npos);
  EXPECT_EQ(r1.to_json(true).find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(r1.to_json(false).find("\"threads\""), std::string::npos);
}

// ---- scheduler: served == direct, bitwise ---------------------------------

RequestEnvelope sweep_envelope(std::uint64_t seed = 7) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.netlist = kSweepInput;
  env.seed = seed;
  return env;
}

JobStatus wait_terminal(const JobScheduler& sched, std::uint64_t id) {
  for (;;) {
    const std::optional<JobStatus> s = sched.status(id);
    EXPECT_TRUE(s.has_value());
    if (!s.has_value() || job_state_terminal(s->state)) return *s;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Scheduler, ServedResultBitwiseIdenticalToDirectRunAt1And8Threads) {
  const std::string want = run(sweep_request()).to_json(/*canonical=*/true);
  for (const unsigned threads : {1u, 8u}) {
    SchedulerConfig cfg;
    cfg.threads = threads;
    JobScheduler sched(cfg);
    const std::uint64_t id = sched.submit(sweep_envelope());
    const JobStatus s = wait_terminal(sched, id);
    ASSERT_EQ(s.state, JobState::kDone) << s.error;
    EXPECT_FALSE(s.cached);
    EXPECT_EQ(sched.result(id), want) << "threads=" << threads;
    // Streaming progress observed the whole sweep.
    EXPECT_GT(s.units_total, 0u);
    EXPECT_EQ(s.units_done, s.units_total);
    EXPECT_EQ(s.points_done, s.points_total);
    EXPECT_EQ(s.partial.size(), s.points_total);
    sched.shutdown();
  }
}

TEST(Scheduler, DegradedFaultInjectedRunServedBitwiseIdentical) {
  // The same deterministic fault plan through both paths: unit 2 throws
  // kNonFiniteRate on every attempt, exhausts its retries, and degrades to
  // a failed:invariant.non_finite_rate row.
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 2;
  f.at_event = 100;
  FaultPlan plan;
  plan.faults.push_back(f);

  RunRequest direct = sweep_request();
  direct.fault_plan = &plan;
  const RunResult ref = run(direct);
  ASSERT_TRUE(ref.driver.degraded());
  const std::string want = ref.to_json(/*canonical=*/true);

  RequestEnvelope env = sweep_envelope();
  env.fault.faults.push_back(f);
  SchedulerConfig cfg;
  cfg.threads = 4;
  JobScheduler sched(cfg);
  const std::uint64_t id = sched.submit(env);
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  EXPECT_GE(s.degraded_points, 1u);
  EXPECT_EQ(sched.result(id), want);
  sched.shutdown();
}

TEST(Scheduler, ResubmitHitsCacheWithoutRunning) {
  SchedulerConfig cfg;
  cfg.threads = 2;
  JobScheduler sched(cfg);
  const std::uint64_t first = sched.submit(sweep_envelope());
  const JobStatus s1 = wait_terminal(sched, first);
  ASSERT_EQ(s1.state, JobState::kDone) << s1.error;
  const ResultCache::Stats before = sched.cache_stats();
  EXPECT_EQ(before.hits, 0u);
  EXPECT_EQ(before.insertions, 1u);

  const std::uint64_t second = sched.submit(sweep_envelope());
  // Born done: no queue wait, no engine work, not even a progress report.
  const std::optional<JobStatus> s2 = sched.status(second);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->state, JobState::kDone);
  EXPECT_TRUE(s2->cached);
  EXPECT_EQ(s2->units_total, 0u);
  EXPECT_EQ(sched.result(second), sched.result(first));

  const ResultCache::Stats after = sched.cache_stats();
  EXPECT_EQ(after.hits, 1u);
  EXPECT_EQ(sched.stats().cache_hits, 1u);

  // A different seed is a different fingerprint: misses, runs for real.
  const std::uint64_t third = sched.submit(sweep_envelope(/*seed=*/8));
  const JobStatus s3 = wait_terminal(sched, third);
  EXPECT_EQ(s3.state, JobState::kDone);
  EXPECT_FALSE(s3.cached);
  EXPECT_NE(sched.result(third), sched.result(first));
  sched.shutdown();
}

TEST(Scheduler, UnknownAndNotReadyJobsAreCodedErrors) {
  SchedulerConfig cfg;
  JobScheduler sched(cfg);
  EXPECT_EQ(code_of([&] { sched.result(99); }), ErrorCode::kServeUnknownJob);
  EXPECT_EQ(code_of([&] { sched.cancel(99); }), ErrorCode::kServeUnknownJob);
  EXPECT_FALSE(sched.status(99).has_value());

  // A malformed netlist is rejected at submit; no job is created.
  RequestEnvelope bad = sweep_envelope();
  bad.netlist = "junc 1 1 2 bogus";
  EXPECT_THROW(sched.submit(bad), Error);
  EXPECT_EQ(sched.stats().submitted, 0u);
  sched.shutdown();
}

// ---- cancellation and shutdown checkpoints --------------------------------

/// Slows every work unit down deterministically (sleep fault, no effect on
/// results) so cancel/shutdown reliably land mid-run.
RequestEnvelope slow_sweep_envelope(std::uint32_t millis = 300) {
  RequestEnvelope env = sweep_envelope();
  FaultSpec f;
  f.kind = FaultKind::kSleep;
  f.at_event = 50;
  f.millis = millis;
  env.fault.faults.push_back(f);
  return env;
}

JobStatus wait_running_unit(const JobScheduler& sched, std::uint64_t id) {
  for (;;) {
    const std::optional<JobStatus> s = sched.status(id);
    EXPECT_TRUE(s.has_value());
    if (s->units_done >= 1 || job_state_terminal(s->state)) return *s;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path("/tmp/" + stem + "." + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

void expect_same_sweep(const std::string& got_doc,
                       const std::string& want_doc) {
  const JsonValue got = JsonValue::parse(got_doc);
  const JsonValue want = JsonValue::parse(want_doc);
  const auto& grows = got.at("sweep").items();
  const auto& wrows = want.at("sweep").items();
  ASSERT_EQ(grows.size(), wrows.size());
  for (std::size_t i = 0; i < grows.size(); ++i) {
    // %.17g serialization round-trips doubles exactly, so == is bitwise.
    EXPECT_EQ(grows[i].at("bias_V").as_number(),
              wrows[i].at("bias_V").as_number());
    EXPECT_EQ(grows[i].at("current_A").as_number(),
              wrows[i].at("current_A").as_number())
        << "row " << i;
    EXPECT_EQ(grows[i].at("stderr_A").as_number(),
              wrows[i].at("stderr_A").as_number())
        << "row " << i;
    EXPECT_EQ(grows[i].at("status").as_string(),
              wrows[i].at("status").as_string());
  }
}

TEST(Scheduler, CancelLeavesResumableCheckpointAndResubmitResumes) {
  const std::string want = run(sweep_request()).to_json(/*canonical=*/true);
  TempDir spool("semsim_serve_cancel_spool");
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.spool_dir = spool.path;
  JobScheduler sched(cfg);

  const std::uint64_t id = sched.submit(slow_sweep_envelope());
  const JobStatus mid = wait_running_unit(sched, id);
  ASSERT_FALSE(job_state_terminal(mid.state))
      << "job finished before cancel could land; raise the sleep fault";
  EXPECT_TRUE(sched.cancel(id));
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kCancelled);
  ASSERT_FALSE(s.checkpoint_path.empty());
  EXPECT_TRUE(std::filesystem::exists(s.checkpoint_path));
  EXPECT_EQ(code_of([&] { sched.result(id); }), ErrorCode::kServeJobNotReady);

  // Identical request (sans the sleep, which is not part of the
  // fingerprint): resumes from the checkpointed prefix and completes.
  const std::uint64_t again = sched.submit(sweep_envelope());
  const JobStatus s2 = wait_terminal(sched, again);
  ASSERT_EQ(s2.state, JobState::kDone) << s2.error;
  EXPECT_FALSE(s2.cached);
  // Fewer fresh units than the whole sweep: some were restored.
  expect_same_sweep(sched.result(again), want);
  // Success clears the spool file.
  EXPECT_FALSE(std::filesystem::exists(s.checkpoint_path));
  sched.shutdown();
}

TEST(Scheduler, SpooledTransientEqualsThePlainRun) {
  // The pulsed-gate SET of examples/service/transient.sem: a `time` run,
  // which the spool checkpoints at each of its milestones.
  constexpr char kTransientInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.01
vdc 2 -0.01
vpulse 3 0 0.02 0 5n 10n
temp 5
record 1 2
time 2e-7
)";
  RunRequest req;
  req.input = parse_simulation_input(kTransientInput);
  req.seed = 7;
  const std::string want = run(req).to_json(/*canonical=*/true);

  TempDir spool("semsim_serve_transient_spool");
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.spool_dir = spool.path;
  JobScheduler sched(cfg);
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.netlist = kTransientInput;
  env.seed = 7;
  const std::uint64_t id = sched.submit(env);
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  EXPECT_EQ(sched.result(id), want);
  sched.shutdown();
}

TEST(Scheduler, ShutdownCancelsAndCheckpointsTheRunningJob) {
  const std::string want = run(sweep_request()).to_json(/*canonical=*/true);
  TempDir spool("semsim_serve_shutdown_spool");
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.spool_dir = spool.path;

  std::string ckpt;
  {
    JobScheduler sched(cfg);
    const std::uint64_t id = sched.submit(slow_sweep_envelope());
    const JobStatus mid = wait_running_unit(sched, id);
    ASSERT_FALSE(job_state_terminal(mid.state));
    sched.shutdown();
    const std::optional<JobStatus> s = sched.status(id);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->state, JobState::kCancelled);
    ASSERT_FALSE(s->checkpoint_path.empty());
    ckpt = s->checkpoint_path;
    EXPECT_TRUE(std::filesystem::exists(ckpt));
    // Submits are refused once shutdown began.
    EXPECT_EQ(code_of([&] { sched.submit(sweep_envelope()); }),
              ErrorCode::kServeShuttingDown);
  }

  // A fresh daemon resumes the interrupted job from the same spool.
  JobScheduler sched2(cfg);
  const std::uint64_t id = sched2.submit(sweep_envelope());
  const JobStatus s = wait_terminal(sched2, id);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  expect_same_sweep(sched2.result(id), want);
  EXPECT_FALSE(std::filesystem::exists(ckpt));
  sched2.shutdown();
}

TEST(Scheduler, QueuedJobCancelIsImmediate) {
  SchedulerConfig cfg;
  cfg.threads = 1;
  JobScheduler sched(cfg);
  // Occupy the dispatcher, then cancel a job that is still queued.
  const std::uint64_t busy = sched.submit(slow_sweep_envelope());
  const std::uint64_t queued = sched.submit(sweep_envelope(/*seed=*/9));
  EXPECT_TRUE(sched.cancel(queued));
  const std::optional<JobStatus> s = sched.status(queued);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kCancelled);
  EXPECT_FALSE(sched.cancel(queued));  // already terminal
  sched.cancel(busy);
  wait_terminal(sched, busy);
  sched.shutdown();
}

// ---- socket server --------------------------------------------------------

struct ServerFixture {
  TempDir dir;
  SchedulerConfig sched_cfg;
  JobScheduler scheduler;
  ServerConfig server_cfg;
  Server server;
  std::thread accept_thread;

  explicit ServerFixture(std::size_t max_request_bytes = 4u << 20)
      : dir("semsim_serve_sock"),
        sched_cfg{/*threads=*/2, /*cache_bytes=*/64u << 20,
                  /*spool_dir=*/""},
        scheduler(sched_cfg),
        server_cfg{make_server_config(max_request_bytes)},
        server(server_cfg, scheduler),
        accept_thread([this] { server.run(); }) {}

  ServerConfig make_server_config(std::size_t max_request_bytes) {
    std::filesystem::create_directories(dir.path);
    ServerConfig cfg;
    cfg.unix_path = dir.path + "/d.sock";
    cfg.max_request_bytes = max_request_bytes;
    cfg.max_json_depth = 16;
    return cfg;
  }

  ServeClient client() const {
    return ServeClient::unix_socket(server_cfg.unix_path);
  }

  ~ServerFixture() {
    server.stop();
    if (accept_thread.joinable()) accept_thread.join();
    scheduler.shutdown();
  }
};

TEST(SocketServer, FullProtocolRoundTripOverUnixSocket) {
  ServerFixture fx;
  const ServeClient client = fx.client();

  // ping
  RequestEnvelope ping;
  const JsonValue pong = JsonValue::parse(client.call(ping));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(pong.at("result_schema").as_string(), RunResult::kJsonSchema);

  // submit
  const JsonValue sub = JsonValue::parse(client.call(sweep_envelope()));
  ASSERT_TRUE(sub.at("ok").as_bool());
  const std::uint64_t job =
      static_cast<std::uint64_t>(sub.at("job").as_number());
  EXPECT_FALSE(sub.at("cached").as_bool());

  // poll status to completion
  RequestEnvelope status;
  status.verb = RequestEnvelope::Verb::kStatus;
  status.job_id = job;
  std::string state;
  for (;;) {
    const JsonValue s = JsonValue::parse(client.call(status));
    ASSERT_TRUE(s.at("ok").as_bool());
    state = s.at("state").as_string();
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(state, "done");

  // result: the stored canonical document VERBATIM, byte-identical to a
  // direct in-process run.
  RequestEnvelope result;
  result.verb = RequestEnvelope::Verb::kResult;
  result.job_id = job;
  const std::string served = client.call(result);
  EXPECT_EQ(served, run(sweep_request()).to_json(/*canonical=*/true));

  // resubmit: cache hit over the wire.
  const JsonValue sub2 = JsonValue::parse(client.call(sweep_envelope()));
  EXPECT_TRUE(sub2.at("cached").as_bool());
  EXPECT_EQ(sub2.at("state").as_string(), "done");

  // stats reflect the hit.
  RequestEnvelope stats;
  stats.verb = RequestEnvelope::Verb::kStats;
  const JsonValue st = JsonValue::parse(client.call(stats));
  EXPECT_EQ(st.at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(st.at("scheduler").at("submitted").as_number(), 2.0);

  // unknown job is a coded error response, connection stays usable.
  RequestEnvelope nosuch;
  nosuch.verb = RequestEnvelope::Verb::kResult;
  nosuch.job_id = 999;
  const JsonValue err = JsonValue::parse(client.call(nosuch));
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("name").as_string(), "serve.unknown_job");

  // shutdown verb stops the accept loop.
  RequestEnvelope bye;
  bye.verb = RequestEnvelope::Verb::kShutdown;
  const JsonValue ack = JsonValue::parse(client.call(bye));
  EXPECT_TRUE(ack.at("ok").as_bool());
  for (int i = 0; i < 100 && !fx.server.shutdown_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fx.server.shutdown_requested());
}

TEST(SocketServer, MalformedAndOversizedRequestsGetCodedResponses) {
  ServerFixture fx(/*max_request_bytes=*/512);
  const ServeClient client = fx.client();

  const JsonValue bad = JsonValue::parse(client.call_raw("this is not json"));
  EXPECT_FALSE(bad.at("ok").as_bool());

  std::string deep = R"({"schema":"semsim.request/v1","verb":"ping","x":)";
  for (int i = 0; i < 40; ++i) deep += "[";
  for (int i = 0; i < 40; ++i) deep += "]";
  deep += "}";
  const JsonValue toodeep = JsonValue::parse(client.call_raw(deep));
  EXPECT_FALSE(toodeep.at("ok").as_bool());
  EXPECT_EQ(toodeep.at("error").at("name").as_string(),
            "parse.json_too_deep");

  const std::string huge =
      R"({"schema":"semsim.request/v1","verb":"ping","pad":")" +
      std::string(2048, 'x') + "\"}";
  const JsonValue toobig = JsonValue::parse(client.call_raw(huge));
  EXPECT_FALSE(toobig.at("ok").as_bool());
  EXPECT_EQ(toobig.at("error").at("name").as_string(),
            "parse.json_too_large");
}

// ---- durability: WAL journal, replay, deadlines, admission control --------

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Envelope, DeadlineAndClientRoundTrip) {
  RequestEnvelope env = sweep_envelope();
  env.deadline_ms = 60000;
  env.client = "sweep-farm-3";
  const RequestEnvelope back =
      parse_request_envelope(encode_request_envelope(env));
  EXPECT_EQ(back.deadline_ms, 60000u);
  EXPECT_EQ(back.client, "sweep-farm-3");
  // Absent on the wire == defaults, so pre-deadline clients parse
  // unchanged.
  const RequestEnvelope plain =
      parse_request_envelope(encode_request_envelope(sweep_envelope()));
  EXPECT_EQ(plain.deadline_ms, 0u);
  EXPECT_TRUE(plain.client.empty());
}

TEST(Journal, EmptyFileStartsFreshAndRecordsReplay) {
  TempDir dir("semsim_journal_fresh");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  {
    JobJournal j(path);
    EXPECT_TRUE(j.records().empty());
    EXPECT_EQ(j.truncated_bytes(), 0u);
    JournalRecord rec;
    rec.type = JournalRecord::Type::kSubmit;
    rec.job_id = 1;
    rec.envelope_json = encode_request_envelope(sweep_envelope());
    rec.deadline_unix_ms = 12345;
    rec.client = "c";
    j.append(rec);
  }
  JobJournal j2(path);
  ASSERT_EQ(j2.records().size(), 1u);
  EXPECT_EQ(j2.records()[0].type, JournalRecord::Type::kSubmit);
  EXPECT_EQ(j2.records()[0].job_id, 1u);
  EXPECT_EQ(j2.records()[0].deadline_unix_ms, 12345u);
  EXPECT_EQ(j2.records()[0].client, "c");
  EXPECT_EQ(j2.truncated_bytes(), 0u);
}

TEST(Journal, TornFinalRecordIsTruncatedToLastValidPrefix) {
  TempDir dir("semsim_journal_torn");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  {
    JobJournal j(path);
    JournalRecord rec;
    rec.type = JournalRecord::Type::kStart;
    rec.job_id = 1;
    j.append(rec);
    rec.job_id = 2;
    j.append(rec);
  }
  const std::uint64_t clean_size = std::filesystem::file_size(path);
  {
    // A crash mid-append: garbage bytes that are not a complete record.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "\x07torn-append";
  }
  {
    JobJournal j(path);
    ASSERT_EQ(j.records().size(), 2u);
    EXPECT_GT(j.truncated_bytes(), 0u);
  }
  // The tail was truncated OFF THE FILE, so a second restart sees a clean
  // journal — replay is idempotent.
  EXPECT_EQ(std::filesystem::file_size(path), clean_size);
  JobJournal again(path);
  EXPECT_EQ(again.records().size(), 2u);
  EXPECT_EQ(again.truncated_bytes(), 0u);
}

TEST(Journal, HeaderDamageIsUnrecoverableCorruption) {
  TempDir dir("semsim_journal_bad");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  {
    std::ofstream f(path, std::ios::binary);
    f << std::string(32, '\xFF');
  }
  EXPECT_EQ(code_of([&] { JobJournal j(path); }),
            ErrorCode::kServeJournalCorrupt);
}

/// Builds a journal file by hand — the crash-survivor's view of the world
/// — so replay can be tested without actually SIGKILLing the process
/// (tools/semsim_chaos.cpp covers the real-kill path).
void craft_journal(const std::string& path,
                   const std::vector<JournalRecord>& records) {
  JobJournal j(path);
  for (const JournalRecord& rec : records) j.append(rec);
}

JournalRecord submit_record(std::uint64_t id, const RequestEnvelope& env) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kSubmit;
  rec.job_id = id;
  rec.envelope_json = encode_request_envelope(env);
  return rec;
}

TEST(Replay, InterruptedJobReenqueuesAndConvergesToDirectBytes) {
  TempDir dir("semsim_replay_pending");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.journal_path = dir.path + "/j.wal";
  // submit + start and then nothing: the daemon died mid-run.
  JournalRecord start;
  start.type = JournalRecord::Type::kStart;
  start.job_id = 1;
  craft_journal(cfg.journal_path, {submit_record(1, sweep_envelope()), start});

  JobScheduler sched(cfg);
  EXPECT_EQ(sched.stats().replayed, 1u);
  EXPECT_EQ(sched.stats().submitted, 1u);
  const JobStatus s = wait_terminal(sched, 1);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  EXPECT_EQ(sched.result(1), run(sweep_request()).to_json(/*canonical=*/true));
  // Ids are never reused: the next submit lands past every replayed id.
  EXPECT_EQ(sched.submit(sweep_envelope(/*seed=*/8)), 2u);
  sched.shutdown();
}

TEST(Replay, DoneDocumentComesBackVerbatimAndReseedsTheCache) {
  TempDir dir("semsim_replay_done");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  JournalRecord done;
  done.type = JournalRecord::Type::kDone;
  done.job_id = 1;
  done.final_state = JobState::kDone;
  done.document = "FAKEDOC";
  craft_journal(cfg.journal_path, {submit_record(1, sweep_envelope()), done});

  JobScheduler sched(cfg);
  // The terminal job is back verbatim, engine untouched.
  EXPECT_EQ(sched.result(1), "FAKEDOC");
  EXPECT_EQ(sched.stats().completed, 1u);
  // And its document re-seeded the fingerprint cache: an identical submit
  // is born done.
  const std::uint64_t id2 = sched.submit(sweep_envelope());
  const JobStatus s2 = *sched.status(id2);
  EXPECT_EQ(s2.state, JobState::kDone);
  EXPECT_TRUE(s2.cached);
  EXPECT_EQ(sched.result(id2), "FAKEDOC");
  sched.shutdown();
}

TEST(Replay, UnprocessedCancelLandsCancelledNotRunnable) {
  TempDir dir("semsim_replay_cancel");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  JournalRecord cancel;
  cancel.type = JournalRecord::Type::kCancel;
  cancel.job_id = 1;
  craft_journal(cfg.journal_path,
                {submit_record(1, sweep_envelope()), cancel});

  JobScheduler sched(cfg);
  const std::optional<JobStatus> s = sched.status(1);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kCancelled);
  EXPECT_EQ(sched.stats().cancelled, 1u);
  EXPECT_EQ(sched.stats().queued, 0u);
  sched.shutdown();
}

TEST(Replay, DuplicateDoneRecordsCountOnce) {
  TempDir dir("semsim_replay_dupdone");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  JournalRecord done;
  done.type = JournalRecord::Type::kDone;
  done.job_id = 1;
  done.final_state = JobState::kDone;
  done.document = "D";
  // The same terminal transition twice (e.g. duplicated around a crash):
  // the first record wins, nothing double-counts.
  craft_journal(cfg.journal_path,
                {submit_record(1, sweep_envelope()), done, done});

  JobScheduler sched(cfg);
  EXPECT_EQ(sched.stats().completed, 1u);
  EXPECT_EQ(sched.stats().submitted, 1u);
  EXPECT_EQ(sched.result(1), "D");
  sched.shutdown();
}

TEST(Replay, DoubleRestartIsBitwiseIdempotent) {
  TempDir dir("semsim_replay_idem");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  // An unprocessed cancel forces the FIRST replay to append the
  // cancelled-terminal record; later replays must append nothing.
  JournalRecord cancel;
  cancel.type = JournalRecord::Type::kCancel;
  cancel.job_id = 1;
  craft_journal(cfg.journal_path,
                {submit_record(1, sweep_envelope()), cancel});

  {
    JobScheduler first(cfg);
    EXPECT_EQ(first.status(1)->state, JobState::kCancelled);
    first.shutdown();
  }
  const std::string after_first = read_bytes(cfg.journal_path);
  {
    JobScheduler second(cfg);
    EXPECT_EQ(second.status(1)->state, JobState::kCancelled);
    EXPECT_EQ(second.stats().cancelled, 1u);
    second.shutdown();
  }
  // Double restart == single restart, bitwise.
  EXPECT_EQ(read_bytes(cfg.journal_path), after_first);
  {
    JobScheduler third(cfg);
    third.shutdown();
  }
  EXPECT_EQ(read_bytes(cfg.journal_path), after_first);
}

TEST(Deadline, ExpiredJobFailsCodedNeverMisfiled) {
  TempDir dir("semsim_deadline");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.spool_dir = dir.path + "/spool";
  JobScheduler sched(cfg);
  // Every unit sleeps, so the 6-unit sweep takes ~1s — the 300 ms budget
  // expires mid-run (or, on a very slow box, while still queued; both
  // paths must file the SAME coded failure).
  RequestEnvelope env = slow_sweep_envelope();
  env.deadline_ms = 300;
  const std::uint64_t id = sched.submit(env);
  EXPECT_NE(sched.status(id)->deadline_unix_ms, 0u);
  const JobStatus s = wait_terminal(sched, id);
  EXPECT_EQ(s.state, JobState::kFailed);
  EXPECT_EQ(s.error_code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(sched.stats().deadline_expired, 1u);
  EXPECT_EQ(sched.stats().failed, 1u);
  EXPECT_EQ(sched.stats().cancelled, 0u);  // never misfiled as a cancel
  sched.shutdown();
}

TEST(Deadline, QueuedJobExpiresWithoutEverStartingTheEngine) {
  SchedulerConfig cfg;
  cfg.threads = 2;
  JobScheduler sched(cfg);
  const std::uint64_t busy = sched.submit(slow_sweep_envelope());
  const JobStatus mid = wait_running_unit(sched, busy);
  ASSERT_FALSE(job_state_terminal(mid.state));
  // Starved behind `busy` with a budget far shorter than busy's runtime;
  // its own sleep fault guarantees the deadline also wins the race in the
  // unlikely case it does get dispatched.
  RequestEnvelope env = slow_sweep_envelope();
  env.seed = 9;
  env.deadline_ms = 40;
  const std::uint64_t starved = sched.submit(env);
  const JobStatus s = wait_terminal(sched, starved);
  EXPECT_EQ(s.state, JobState::kFailed);
  EXPECT_EQ(s.error_code, ErrorCode::kDeadlineExceeded);
  sched.cancel(busy);
  wait_terminal(sched, busy);
  sched.shutdown();
}

TEST(Overload, QueueDepthRejectsWithRetryHint) {
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.max_queue_depth = 1;
  cfg.retry_after_ms = 123;
  JobScheduler sched(cfg);
  const std::uint64_t busy = sched.submit(slow_sweep_envelope());
  wait_running_unit(sched, busy);  // off the queue, onto the engine
  const std::uint64_t queued = sched.submit(sweep_envelope(/*seed=*/8));
  try {
    sched.submit(sweep_envelope(/*seed=*/9));
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kServerOverloaded);
    EXPECT_EQ(e.retry_after_ms(), 123u);
  }
  EXPECT_EQ(sched.stats().overload_rejected, 1u);
  // The reject is not a job: nothing was created or counted as submitted.
  EXPECT_EQ(sched.stats().submitted, 2u);
  sched.cancel(busy);
  sched.cancel(queued);
  wait_terminal(sched, busy);
  sched.shutdown();
}

TEST(Overload, PerClientInflightCapIsPerClient) {
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.max_inflight_per_client = 1;
  JobScheduler sched(cfg);
  RequestEnvelope alice = slow_sweep_envelope();
  alice.client = "alice";
  const std::uint64_t first = sched.submit(alice);
  RequestEnvelope more = sweep_envelope(/*seed=*/8);
  more.client = "alice";
  EXPECT_EQ(code_of([&] { sched.submit(more); }),
            ErrorCode::kServerOverloaded);
  // A different client is a different bucket.
  RequestEnvelope bob = sweep_envelope(/*seed=*/9);
  bob.client = "bob";
  EXPECT_NO_THROW(sched.submit(bob));
  sched.cancel(first);
  wait_terminal(sched, first);
  sched.shutdown();
}

TEST(SocketServer, OverloadRejectCarriesRetryAfterMsOverTheWire) {
  TempDir dir("semsim_overload_sock");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig scfg;
  scfg.threads = 2;
  scfg.max_queue_depth = 1;
  scfg.retry_after_ms = 99;
  JobScheduler sched(scfg);
  ServerConfig cfg;
  cfg.unix_path = dir.path + "/d.sock";
  Server server(cfg, sched);
  std::thread accept([&server] { server.run(); });
  const ServeClient client = ServeClient::unix_socket(cfg.unix_path);

  const JsonValue sub = JsonValue::parse(client.call(slow_sweep_envelope()));
  ASSERT_TRUE(sub.at("ok").as_bool());
  const std::uint64_t busy =
      static_cast<std::uint64_t>(sub.at("job").as_number());
  // Wait until the job is RUNNING (off the queue) so the next submit
  // deterministically occupies the single queue slot.
  RequestEnvelope poll;
  poll.verb = RequestEnvelope::Verb::kStatus;
  poll.job_id = busy;
  for (;;) {
    const JsonValue s = JsonValue::parse(client.call(poll));
    if (s.at("state").as_string() == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(
      JsonValue::parse(client.call(sweep_envelope(/*seed=*/8))).at("ok")
          .as_bool());
  const JsonValue reject =
      JsonValue::parse(client.call(sweep_envelope(/*seed=*/9)));
  EXPECT_FALSE(reject.at("ok").as_bool());
  EXPECT_EQ(reject.at("error").at("name").as_string(), "serve.overloaded");
  EXPECT_EQ(reject.at("error").at("retry_after_ms").as_number(), 99.0);

  server.stop();
  accept.join();
  sched.shutdown();
}

TEST(SocketServer, FinishedConnectionThreadsAreReaped) {
  // Every call is one connection served by one thread. The accept loop
  // joins the threads of finished connections, so 500 sequential pings
  // grow neither the process's thread count nor the server's thread table.
  ServerFixture fx;
  const ServeClient client = fx.client();
  const auto task_count = [] {
    std::size_t n = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++n;
    }
    return n;
  };
  RequestEnvelope ping;
  ASSERT_TRUE(JsonValue::parse(client.call(ping)).at("ok").as_bool());
  const std::size_t baseline = task_count();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(JsonValue::parse(client.call(ping)).at("ok").as_bool());
  }
  EXPECT_LE(task_count(), baseline + 16);
  EXPECT_LE(fx.server.connection_threads(), 16u);
}

TEST(SocketServer, TcpLoopbackTransportWorks) {
  SchedulerConfig sched_cfg;
  JobScheduler scheduler(sched_cfg);
  ServerConfig cfg;
  cfg.tcp_port = 0;  // ephemeral
  Server server(cfg, scheduler);
  ASSERT_GT(server.port(), 0);
  std::thread accept([&server] { server.run(); });
  const ServeClient client = ServeClient::tcp(server.port());
  RequestEnvelope ping;
  const JsonValue pong = JsonValue::parse(client.call(ping));
  EXPECT_TRUE(pong.at("ok").as_bool());
  server.stop();
  accept.join();
  scheduler.shutdown();
}

}  // namespace
}  // namespace semsim
