// Service layer (src/serve/) end to end: hardened JSON limits, the
// request-envelope codec, the fingerprint-keyed result cache, the job
// scheduler (bitwise served-vs-direct equivalence at 1 and 8 worker
// threads, including a fault-injected degraded case), cancellation and
// shutdown leaving resumable spool checkpoints, and the socket server's
// wire protocol.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/api.h"
#include "base/constants.h"
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

TEST(Envelope, SubmitEncodingIsByteStable) {
  // Journals and result caches outlive builds: a submit with every run-spec
  // field, an ensemble, a partition and a fault away from their defaults
  // must keep encoding to these bytes.
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.priority = -3;
  env.deadline_ms = 60000;
  env.client = "farm-3";
  env.netlist = "jumps 10\n";
  env.seed = 42;
  env.adaptive = false;
  env.repeats = 5;
  env.stop.max_events = 9999;
  env.stop.target_rel_error = 0.125;
  env.stop.check_interval = 64;
  env.retry.strict = true;
  env.retry.max_attempts = 7;
  env.ensemble.enabled = true;
  env.ensemble.replicas = 24;
  env.ensemble.seed = 99;
  env.ensemble.bg_charge = {0.04, PerturbationSpec::Dist::kUniform};
  env.ensemble.resistance.spread = 0.03;
  env.ensemble.capacitance = {0.02, PerturbationSpec::Dist::kUniform};
  env.ensemble.temperature.spread = 0.01;
  env.ensemble.yield_min = 1e-22;
  env.ensemble.yield_max = 1e-18;
  env.partition.enabled = true;
  env.partition.clusters = 3;
  env.partition.window = 2.5e-9;
  env.partition.coupling_threshold = 0.05;
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 2;
  f.attempt = 1;
  f.at_event = 100;
  f.index = 4;
  f.value = -1.5;
  f.millis = 3;
  f.sticky = true;
  env.fault.faults.push_back(f);

  EXPECT_EQ(
      encode_request_envelope(env),
      R"({"schema":"semsim.request/v1","verb":"submit","priority":-3,)"
      R"("deadline_ms":60000,"client":"farm-3","netlist":"jumps 10\n",)"
      R"("seed":42,"adaptive":false,"repeats":5,"stop":{"max_events":9999,)"
      R"("target_rel_error":0.125,"check_interval":64},)"
      R"("retry":{"strict":true,"max_attempts":7},)"
      R"("ensemble":{"replicas":24,"seed":99,)"
      R"("bg_spread":0.040000000000000001,"bg_dist":"uniform",)"
      R"("resistance_spread":0.029999999999999999,)"
      R"("resistance_dist":"gaussian","capacitance_spread":0.02,)"
      R"("capacitance_dist":"uniform","temperature_spread":0.01,)"
      R"("temperature_dist":"gaussian","yield_min":1e-22,)"
      R"("yield_max":1.0000000000000001e-18},)"
      R"("partition":{"clusters":3,"window":2.5000000000000001e-09,)"
      R"("coupling_threshold":0.050000000000000003},)"
      R"("fault":[{"kind":"nan_rate","unit":2,"attempt":1,"at_event":100,)"
      R"("index":4,"value":-1.5,"millis":3,"sticky":true}]})");
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

TEST(Envelope, RetiredFastRatesParsesOnlyAsFalse) {
  // Every client built while the approximate thermal kernel existed sent
  // "fast_rates":false, and every daemon journal of that time holds it:
  // it must parse as if it were absent. Asking for the kernel is a coded
  // rejection that names the field.
  const std::string head =
      R"({"schema":"semsim.request/v1","verb":"submit","netlist":"x",)";
  const RequestEnvelope plain =
      parse_request_envelope(head + R"("seed":3})");
  const RequestEnvelope old =
      parse_request_envelope(head + R"("fast_rates":false,"seed":3})");
  EXPECT_EQ(encode_request_envelope(old), encode_request_envelope(plain));
  try {
    parse_request_envelope(head + R"("fast_rates":true,"seed":3})");
    ADD_FAILURE() << "\"fast_rates\":true parsed";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseSyntax);
    EXPECT_NE(std::string(e.what()).find("fast_rates"), std::string::npos)
        << e.what();
  }
}

// ---- result cache ---------------------------------------------------------

SharedDocument doc(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

TEST(ResultCacheTest, CountsHitsAndMissesAndServesBytes) {
  ResultCache cache(1024);
  EXPECT_EQ(cache.lookup(1), nullptr);
  cache.insert(1, doc("document-one"));
  const SharedDocument hit = cache.lookup(1);
  ASSERT_NE(hit, nullptr);
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
  cache.insert(1, doc(std::string(8, 'a')));
  cache.insert(2, doc(std::string(8, 'b')));
  // Touch 1 so 2 is the LRU victim.
  EXPECT_NE(cache.lookup(1), nullptr);
  cache.insert(3, doc(std::string(8, 'c')));  // 24 bytes > 20: evict 2
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 20u);
}

TEST(ResultCacheTest, OversizedAndDisabledInsertsAreDropped) {
  ResultCache off(0);
  const SharedDocument x = doc("x");
  EXPECT_EQ(off.insert(1, x), x);  // the caller keeps its own object
  EXPECT_EQ(off.lookup(1), nullptr);
  ResultCache tiny(4);
  tiny.insert(2, doc("longer-than-budget"));
  EXPECT_EQ(tiny.lookup(2), nullptr);
}

TEST(ResultCacheTest, LookupSharesTheStoredBytes) {
  ResultCache cache(16);
  const SharedDocument stored = doc(std::string(10, 'a'));
  EXPECT_EQ(cache.insert(1, stored), stored);
  const SharedDocument first = cache.lookup(1);
  const SharedDocument second = cache.lookup(1);
  EXPECT_EQ(first, stored);  // the stored object itself, not a copy
  EXPECT_EQ(second, first);
  // The same bytes inserted again (a replayed or recomputed document) give
  // way to the stored object; different bytes replace it.
  EXPECT_EQ(cache.insert(1, doc(std::string(10, 'a'))), stored);
  EXPECT_EQ(cache.lookup(1), stored);
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().bytes, 10u);
  const SharedDocument other = doc(std::string(10, 'c'));
  EXPECT_EQ(cache.insert(1, other), other);
  EXPECT_EQ(cache.lookup(1), other);
  // Held pointers survive eviction; the cache only drops its reference.
  cache.insert(2, doc(std::string(10, 'b')));  // 20 bytes > 16: evict 1
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(other.use_count(), 1);
  EXPECT_EQ(*first, std::string(10, 'a'));
  EXPECT_EQ(stored.use_count(), 3);  // stored, first, second
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
  req.stop.target_rel_error = 0.05;
  req.stop.check_interval = 32;
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.input.repeats = 9;
  EXPECT_NE(req.fingerprint(), base);

  // Every circuit field beyond the elements. Node 3 is the gate lead,
  // node 4 the island.
  const NodeId gate = 3;
  const NodeId island = 4;
  req = sweep_request();
  req.input.circuit.set_source(gate, Waveform::dc(0.02));  // level
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.input.circuit.set_source(gate, Waveform::step(0.0, 0.0, 1e-9));  // kind
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.input.circuit.set_source(gate, Waveform::pulse(0.0, 0.02, 0.0, 5e-9, 10e-9));
  const std::uint64_t pulsed = req.fingerprint();
  req.input.circuit.set_source(gate, Waveform::pulse(0.0, 0.02, 0.0, 4e-9, 10e-9));
  EXPECT_NE(req.fingerprint(), pulsed);  // parameters

  req = sweep_request();
  req.input.circuit.set_source(gate, Waveform::piecewise({0.0, 1e-9}, {0.0, 0.02}));
  const std::uint64_t pwl = req.fingerprint();
  req.input.circuit.set_source(gate, Waveform::piecewise({0.0, 2e-9}, {0.0, 0.02}));
  EXPECT_NE(req.fingerprint(), pwl);  // piecewise points
  req.input.circuit.set_source(
      gate, Waveform::piecewise({0.0, 1e-9, 3e-9}, {0.0, 0.02, 0.0}));
  EXPECT_NE(req.fingerprint(), pwl);

  req = sweep_request();
  req.input.circuit.set_background_charge(island, 0.1);
  EXPECT_NE(req.fingerprint(), base);

  req = sweep_request();
  req.input.circuit.set_superconducting({0.2e-3 * kElementaryCharge, 1.2});
  const std::uint64_t super = req.fingerprint();
  EXPECT_NE(super, base);
  req.input.circuit.set_superconducting({0.3e-3 * kElementaryCharge, 1.2});
  EXPECT_NE(req.fingerprint(), super);  // gap
  req.input.circuit.set_superconducting({0.2e-3 * kElementaryCharge, 1.5});
  EXPECT_NE(req.fingerprint(), super);  // critical temperature

  // Node kinds: the same junction between nodes 1 and 2, a lead and an
  // island in one order or the other.
  const auto box = [](bool lead_first) {
    RunRequest r = sweep_request();
    Circuit c;
    const NodeId first = lead_first ? c.add_external("1") : c.add_island("1");
    const NodeId second = lead_first ? c.add_island("2") : c.add_external("2");
    c.add_junction(first, second, 1e6, 1e-18);
    r.input.circuit = c;
    r.input.sweep.reset();
    r.input.record_junctions = {0};
    return r.fingerprint();
  };
  EXPECT_NE(box(true), box(false));

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
    EXPECT_EQ(*sched.result(id), want) << "threads=" << threads;
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
  EXPECT_EQ(*sched.result(id), want);
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
  EXPECT_EQ(*sched.result(second), *sched.result(first));

  const ResultCache::Stats after = sched.cache_stats();
  EXPECT_EQ(after.hits, 1u);
  EXPECT_EQ(sched.stats().cache_hits, 1u);

  // A different seed is a different fingerprint: misses, runs for real.
  const std::uint64_t third = sched.submit(sweep_envelope(/*seed=*/8));
  const JobStatus s3 = wait_terminal(sched, third);
  EXPECT_EQ(s3.state, JobState::kDone);
  EXPECT_FALSE(s3.cached);
  EXPECT_NE(*sched.result(third), *sched.result(first));
  sched.shutdown();
}

TEST(Scheduler, JobsDifferingOnlyInASourceLevelBothRun) {
  // The sweep input with its gate at 20 mV instead of 0 V: a different
  // circuit, so it must run rather than answer from the first job's cache
  // entry, and each document must equal its own local run.
  std::string gated = kSweepInput;
  const std::string gate_line = "vdc 3 0.0";
  gated.replace(gated.find(gate_line), gate_line.size(), "vdc 3 0.02");
  RunRequest local = sweep_request();
  const std::string want_plain = run(local).to_json(/*canonical=*/true);
  local.input = parse_simulation_input(gated);
  const std::string want_gated = run(local).to_json(/*canonical=*/true);
  ASSERT_NE(want_plain, want_gated);

  SchedulerConfig cfg;
  cfg.threads = 2;
  JobScheduler sched(cfg);
  const std::uint64_t first = sched.submit(sweep_envelope());
  const JobStatus s1 = wait_terminal(sched, first);
  ASSERT_EQ(s1.state, JobState::kDone) << s1.error;
  RequestEnvelope env = sweep_envelope();
  env.netlist = gated;
  const std::uint64_t second = sched.submit(env);
  const JobStatus s2 = wait_terminal(sched, second);
  ASSERT_EQ(s2.state, JobState::kDone) << s2.error;
  EXPECT_FALSE(s2.cached);
  EXPECT_EQ(sched.cache_stats().hits, 0u);
  EXPECT_EQ(*sched.result(first), want_plain);
  EXPECT_EQ(*sched.result(second), want_gated);
  sched.shutdown();
}

TEST(Scheduler, CacheHitSharesTheComputedDocument) {
  SchedulerConfig cfg;
  cfg.threads = 2;
  JobScheduler sched(cfg);
  const std::uint64_t first = sched.submit(sweep_envelope());
  ASSERT_EQ(wait_terminal(sched, first).state, JobState::kDone);
  const std::uint64_t second = sched.submit(sweep_envelope());
  ASSERT_TRUE(sched.status(second)->cached);
  const SharedDocument computed = sched.result(first);
  EXPECT_EQ(sched.result(second), computed);
  EXPECT_EQ(sched.cache_stats().bytes, computed->size());
  // One object: this pointer, both jobs and the cache entry.
  EXPECT_EQ(computed.use_count(), 4);
  sched.shutdown();
}

TEST(Scheduler, DoneJobOutlivesItsCacheEntry) {
  const std::string want = run(sweep_request()).to_json(/*canonical=*/true);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.cache_bytes = want.size() * 3 / 2;  // room for one document, not two
  JobScheduler sched(cfg);
  const std::uint64_t first = sched.submit(sweep_envelope());
  ASSERT_EQ(wait_terminal(sched, first).state, JobState::kDone);
  const std::uint64_t second = sched.submit(sweep_envelope(/*seed=*/8));
  ASSERT_EQ(wait_terminal(sched, second).state, JobState::kDone);
  EXPECT_EQ(sched.cache_stats().evictions, 1u);
  EXPECT_EQ(sched.cache_stats().entries, 1u);
  EXPECT_EQ(*sched.result(first), want);
  // The evicted fingerprint misses: a resubmit runs again, to the same
  // bytes.
  const std::uint64_t third = sched.submit(sweep_envelope());
  const JobStatus s3 = wait_terminal(sched, third);
  ASSERT_EQ(s3.state, JobState::kDone) << s3.error;
  EXPECT_FALSE(s3.cached);
  EXPECT_EQ(*sched.result(third), want);
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
  expect_same_sweep(*sched.result(again), want);
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
  EXPECT_EQ(*sched.result(id), want);
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
  expect_same_sweep(*sched2.result(id), want);
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

// ---- cache and spool keys --------------------------------------------------

/// The sweep with a sticky NaN rate on unit 2 from event 100 on: every
/// attempt fails, so the unit degrades to a failed row.
RequestEnvelope faulty_sweep_envelope(std::uint64_t seed) {
  RequestEnvelope env = sweep_envelope(seed);
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 2;
  f.at_event = 100;
  f.sticky = true;
  env.fault.faults.push_back(f);
  return env;
}

TEST(Scheduler, FaultInjectedDocumentNeverAnswersACleanSubmit) {
  const std::string clean = run(sweep_request(1, 11)).to_json(true);
  ASSERT_EQ(clean.find("\"degraded\":true"), std::string::npos);
  SchedulerConfig cfg;
  cfg.threads = 2;
  JobScheduler sched(cfg);
  const std::uint64_t faulty = sched.submit(faulty_sweep_envelope(11));
  ASSERT_EQ(wait_terminal(sched, faulty).state, JobState::kDone);
  ASSERT_NE(sched.result(faulty)->find("\"degraded\":true"),
            std::string::npos);
  // Neither read nor written: the same faulty submit runs again.
  const std::uint64_t again = sched.submit(faulty_sweep_envelope(11));
  const JobStatus s_again = wait_terminal(sched, again);
  EXPECT_FALSE(s_again.cached);
  EXPECT_EQ(*sched.result(again), *sched.result(faulty));
  EXPECT_EQ(sched.cache_stats().insertions, 0u);

  const std::uint64_t plain = sched.submit(sweep_envelope(11));
  const JobStatus s = wait_terminal(sched, plain);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  EXPECT_FALSE(s.cached);
  EXPECT_EQ(*sched.result(plain), clean);
  EXPECT_EQ(sched.cache_stats().hits, 0u);
  sched.shutdown();
}

TEST(Scheduler, CancelledFaultyRunLeavesNoSpoolForACleanSubmit) {
  const std::string clean = run(sweep_request()).to_json(true);
  TempDir spool("semsim_serve_faulty_spool");
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.spool_dir = spool.path;
  JobScheduler sched(cfg);
  RequestEnvelope env = faulty_sweep_envelope(7);
  env.fault.faults.push_back(slow_sweep_envelope(100).fault.faults[0]);
  const std::uint64_t id = sched.submit(env);
  for (;;) {  // until the poisoned unit has degraded
    const JobStatus st = *sched.status(id);
    if (st.degraded_points >= 1 || job_state_terminal(st.state)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(sched.cancel(id))
      << "job finished before cancel could land; raise the sleep fault";
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kCancelled);
  EXPECT_TRUE(s.checkpoint_path.empty());
  for (const auto& entry : std::filesystem::directory_iterator(spool.path)) {
    ADD_FAILURE() << "spool holds " << entry.path();
  }

  const std::uint64_t plain = sched.submit(sweep_envelope());
  const JobStatus s2 = wait_terminal(sched, plain);
  ASSERT_EQ(s2.state, JobState::kDone) << s2.error;
  EXPECT_EQ(*sched.result(plain), clean);
  sched.shutdown();
}

TEST(Scheduler, RetryPolicyKeysItsOwnCacheEntryAndSpoolFile) {
  const std::uint64_t fp = sweep_request().fingerprint();
  RetryPolicy strict;
  strict.strict = true;
  RetryPolicy once;
  once.max_attempts = 1;
  EXPECT_EQ(result_key(fp, RetryPolicy{}), fp);
  EXPECT_NE(result_key(fp, strict), fp);
  EXPECT_NE(result_key(fp, once), fp);
  EXPECT_NE(result_key(fp, strict), result_key(fp, once));

  TempDir spool("semsim_serve_retry_keys");
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.spool_dir = spool.path;
  JobScheduler sched(cfg);
  const std::uint64_t plain = sched.submit(sweep_envelope());
  ASSERT_EQ(wait_terminal(sched, plain).state, JobState::kDone);
  for (const RetryPolicy& policy : {strict, once}) {
    RequestEnvelope env = sweep_envelope();
    env.retry = policy;
    const std::uint64_t id = sched.submit(env);
    const JobStatus s = wait_terminal(sched, id);
    ASSERT_EQ(s.state, JobState::kDone) << s.error;
    EXPECT_FALSE(s.cached) << "answered from the default policy's entry";
    EXPECT_EQ(s.fingerprint, fp);
    EXPECT_TRUE(sched.status(sched.submit(env))->cached);
  }

  // A cancelled strict run's spool file carries its own key.
  RequestEnvelope env = slow_sweep_envelope();
  env.seed = 8;
  env.retry = strict;
  const std::uint64_t id = sched.submit(env);
  ASSERT_FALSE(job_state_terminal(wait_running_unit(sched, id).state));
  sched.cancel(id);
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kCancelled);
  const std::uint64_t fp8 = sweep_request(1, 8).fingerprint();
  EXPECT_EQ(s.checkpoint_path, spool.path + "/job-" +
                                   fingerprint_hex(result_key(fp8, strict)) +
                                   ".ckpt");
  EXPECT_TRUE(std::filesystem::exists(s.checkpoint_path));
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
        sched_cfg{.threads = 2,
                  .cache_bytes = 64u << 20,
                  .spool_dir = "",
                  .journal_path = ""},
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
    EXPECT_TRUE(j.take_records().empty());
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
  const std::vector<JournalRecord> records = j2.take_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, JournalRecord::Type::kSubmit);
  EXPECT_EQ(records[0].job_id, 1u);
  EXPECT_EQ(records[0].deadline_unix_ms, 12345u);
  EXPECT_EQ(records[0].client, "c");
  EXPECT_EQ(j2.truncated_bytes(), 0u);
  // Taken once: the journal keeps no history after replay.
  EXPECT_TRUE(j2.take_records().empty());
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
    ASSERT_EQ(j.take_records().size(), 2u);
    EXPECT_GT(j.truncated_bytes(), 0u);
  }
  // The tail was truncated OFF THE FILE, so a second restart sees a clean
  // journal — replay is idempotent.
  EXPECT_EQ(std::filesystem::file_size(path), clean_size);
  JobJournal again(path);
  EXPECT_EQ(again.take_records().size(), 2u);
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

// ---- the journal's frame reader --------------------------------------------

/// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
long peak_rss_kib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Appends `v` to `out` as `bytes` little-endian bytes.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// FNV-1a 64, written out here so the tests pin the checksum itself.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One frame of the documented layout: u64 body length, the body, u64
/// FNV-1a of the body.
std::string frame_of(const std::string& body) {
  std::string out;
  put_le(out, body.size(), 8);
  out += body;
  put_le(out, fnv1a(body), 8);
  return out;
}

/// A whole journal in the documented layout (serve/journal.h), built by
/// hand: the header, then one frame per body.
std::string journal_bytes(const std::vector<std::string>& bodies) {
  std::string out;
  put_le(out, 0x53454D53494D4A4CULL, 8);  // "SEMSIMJL"
  put_le(out, 1, 4);                      // format version
  put_le(out, 0, 4);                      // reserved
  for (const std::string& body : bodies) out += frame_of(body);
  return out;
}

/// Body prefix shared by every record type: u8 type, u64 job id.
std::string body_head(JournalRecord::Type type, std::uint64_t id) {
  std::string b(1, static_cast<char>(type));
  put_le(b, id, 8);
  return b;
}

/// A length-prefixed string field (u64 length, bytes).
std::string str_field(const std::string& s) {
  std::string b;
  put_le(b, s.size(), 8);
  return b + s;
}

std::string submit_body(std::uint64_t id, const std::string& envelope,
                        std::uint64_t deadline, const std::string& client) {
  std::string b = body_head(JournalRecord::Type::kSubmit, id) +
                  str_field(envelope);
  put_le(b, deadline, 8);
  return b + str_field(client);
}

std::string done_body(std::uint64_t id, std::uint8_t state, ErrorCode code,
                      const std::string& error, const std::string& document) {
  std::string b = body_head(JournalRecord::Type::kDone, id);
  put_le(b, state, 1);
  put_le(b, static_cast<std::uint64_t>(code), 4);
  return b + str_field(error) + str_field(document);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

void expect_same_record(const JournalRecord& got, const JournalRecord& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.job_id, want.job_id);
  EXPECT_EQ(got.envelope_json, want.envelope_json);
  EXPECT_EQ(got.deadline_unix_ms, want.deadline_unix_ms);
  EXPECT_EQ(got.client, want.client);
  EXPECT_EQ(got.final_state, want.final_state);
  EXPECT_EQ(got.error_code, want.error_code);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.document, want.document);
}

JournalRecord bare_record(JournalRecord::Type type, std::uint64_t id) {
  JournalRecord rec;
  rec.type = type;
  rec.job_id = id;
  return rec;
}

JournalRecord done_record(std::uint64_t id, JobState state, ErrorCode code,
                          std::string error, std::string document) {
  JournalRecord rec = bare_record(JournalRecord::Type::kDone, id);
  rec.final_state = state;
  rec.error_code = code;
  rec.error = std::move(error);
  rec.document = std::move(document);
  return rec;
}

TEST(Journal, EveryRecordTypeReadsBackFieldForField) {
  TempDir dir("semsim_journal_types");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  JournalRecord submit = submit_record(1, sweep_envelope());
  submit.deadline_unix_ms = 1700000000123ULL;
  submit.client = "farm-7";
  std::string big_doc(4096, 'x');
  for (std::size_t i = 0; i < big_doc.size(); ++i) {
    big_doc[i] = static_cast<char>(i * 131 % 251);  // most byte values
  }
  const std::vector<JournalRecord> written = {
      submit,
      bare_record(JournalRecord::Type::kStart, 1),
      done_record(1, JobState::kDone, ErrorCode::kNone, "", big_doc),
      submit_record(2, sweep_envelope(/*seed=*/8)),
      bare_record(JournalRecord::Type::kCancel, 2),
      done_record(2, JobState::kCancelled, ErrorCode::kCancelled,
                  "cancelled while queued", ""),
      submit_record(3, sweep_envelope(/*seed=*/9)),
      done_record(3, JobState::kFailed, ErrorCode::kDeadlineExceeded,
                  "missed its deadline", ""),
  };
  craft_journal(path, written);
  JobJournal j(path);
  EXPECT_EQ(j.truncated_bytes(), 0u);
  const std::vector<JournalRecord> read = j.take_records();
  ASSERT_EQ(read.size(), written.size());
  for (std::size_t i = 0; i < read.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    expect_same_record(read[i], written[i]);
  }
}

TEST(Journal, HandBuiltFileInTheDocumentedLayoutReplays) {
  // Pins the on-disk format independently of the writer: bytes built here
  // from the layout in serve/journal.h read back, replay, and equal what
  // the writer produces for the same records.
  TempDir dir("semsim_journal_layout");
  std::filesystem::create_directories(dir.path);
  const std::string envelope = encode_request_envelope(sweep_envelope());
  const std::string hand = journal_bytes({
      submit_body(1, envelope, 0, "c1"),
      body_head(JournalRecord::Type::kStart, 1),
      done_body(1, /*kDone*/ 2, ErrorCode::kNone, "", "HANDDOC"),
      submit_body(2, envelope, 0, ""),
      body_head(JournalRecord::Type::kCancel, 2),
  });
  JournalRecord submit1 = submit_record(1, sweep_envelope());
  submit1.client = "c1";
  const std::vector<JournalRecord> want = {
      submit1,
      bare_record(JournalRecord::Type::kStart, 1),
      done_record(1, JobState::kDone, ErrorCode::kNone, "", "HANDDOC"),
      submit_record(2, sweep_envelope()),
      bare_record(JournalRecord::Type::kCancel, 2),
  };

  const std::string read_path = dir.path + "/hand.wal";
  write_file(read_path, hand);
  {
    JobJournal j(read_path);
    EXPECT_EQ(j.truncated_bytes(), 0u);
    const std::vector<JournalRecord> got = j.take_records();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("record " + std::to_string(i));
      expect_same_record(got[i], want[i]);
    }
  }
  EXPECT_EQ(read_bytes(read_path), hand);  // opening changed nothing

  const std::string write_path = dir.path + "/written.wal";
  craft_journal(write_path, want);
  EXPECT_EQ(read_bytes(write_path), hand);

  SchedulerConfig cfg;
  cfg.journal_path = read_path;
  JobScheduler sched(cfg);
  EXPECT_EQ(*sched.result(1), "HANDDOC");
  EXPECT_EQ(sched.status(1)->client, "c1");
  EXPECT_EQ(sched.status(2)->state, JobState::kCancelled);
  EXPECT_EQ(sched.stats().replayed, 2u);
  sched.shutdown();
}

TEST(Journal, TornFramesAreTruncatedToTheValidPrefix) {
  TempDir dir("semsim_journal_frames");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  craft_journal(path, {submit_record(1, sweep_envelope()),
                       bare_record(JournalRecord::Type::kStart, 1)});
  const std::string clean = read_bytes(path);
  const std::string frame =
      frame_of(body_head(JournalRecord::Type::kStart, 2));

  std::vector<std::pair<const char*, std::string>> tails;
  std::string flipped = frame;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  tails.emplace_back("last record's checksum flipped", flipped);
  std::string past_end;
  put_le(past_end, 100, 8);
  past_end += std::string(10, 'b');
  tails.emplace_back("body past the end of the file", past_end);
  tails.emplace_back("checksum past the end of the file",
                     frame.substr(0, frame.size() - 3));
  std::string over_cap;
  put_le(over_cap, (1ULL << 30) + 1, 8);  // above the 1 GiB body cap
  over_cap += std::string(32, 'c');
  tails.emplace_back("length above the cap", over_cap);
  tails.emplace_back("partial length field", std::string(5, '\x01'));
  for (const auto& [name, tail] : tails) {
    SCOPED_TRACE(name);
    write_file(path, clean + tail);
    JobJournal j(path);
    EXPECT_EQ(j.take_records().size(), 2u);
    EXPECT_EQ(j.truncated_bytes(), tail.size());
    EXPECT_EQ(read_bytes(path), clean);
  }
}

TEST(Journal, WildLengthFieldAllocatesNothing) {
  // A frame claiming 512 MiB in a file that holds a few bytes of it: the
  // reader must see that the file is short before it allocates anything.
  TempDir dir("semsim_journal_wild");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  craft_journal(path, {submit_record(1, sweep_envelope())});
  const std::string clean = read_bytes(path);
  std::string tail;
  put_le(tail, 512ULL << 20, 8);
  tail += std::string(64, 'w');
  write_file(path, clean + tail);

  const long before_kib = peak_rss_kib();
  {
    JobJournal j(path);
    EXPECT_EQ(j.take_records().size(), 1u);
    EXPECT_EQ(j.truncated_bytes(), tail.size());
  }
  EXPECT_LT(peak_rss_kib() - before_kib, 64L * 1024);
  EXPECT_EQ(read_bytes(path), clean);
}

TEST(Journal, DamageInsideAVerifiedBodyIsCorruptNotTorn) {
  // Each bad body carries a valid checksum, so no torn append explains it:
  // the open refuses with the coded corruption error and truncates nothing
  // (the valid record after it stays on disk).
  TempDir dir("semsim_journal_body");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  std::string overrun = body_head(JournalRecord::Type::kSubmit, 3);
  put_le(overrun, 1000, 8);  // a string length past the end of the body
  overrun += "abc";
  const std::string start3 = body_head(JournalRecord::Type::kStart, 3);
  std::string bad_type = start3;
  bad_type[0] = 9;
  const std::vector<std::pair<const char*, std::string>> bodies = {
      {"string past the body", overrun},
      {"trailing byte", start3 + "!"},
      {"unknown type", bad_type},
      {"bad terminal state", done_body(3, 7, ErrorCode::kNone, "", "")},
  };
  for (const auto& [name, bad] : bodies) {
    SCOPED_TRACE(name);
    const std::string bytes =
        journal_bytes({body_head(JournalRecord::Type::kStart, 1),
                       body_head(JournalRecord::Type::kStart, 2), bad,
                       body_head(JournalRecord::Type::kStart, 4)});
    write_file(path, bytes);
    EXPECT_EQ(code_of([&] { JobJournal j(path); }),
              ErrorCode::kServeJournalCorrupt);
    EXPECT_EQ(read_bytes(path), bytes);
  }
}

TEST(Journal, ZeroLengthAndShortFilesStartFresh) {
  // An empty file, or a crash inside the very first header write: there
  // is no record to lose, so the open writes a whole header.
  TempDir dir("semsim_journal_short");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  const std::string header = journal_bytes({});
  ASSERT_EQ(header.size(), 16u);
  for (const std::size_t size : {0u, 1u, 8u, 15u}) {
    SCOPED_TRACE(size);
    write_file(path, header.substr(0, size));
    JobJournal j(path);
    EXPECT_TRUE(j.take_records().empty());
    EXPECT_EQ(j.truncated_bytes(), size);
    EXPECT_EQ(read_bytes(path), header);
  }
}

/// True when this process maps `path` (a line of /proc/self/maps names it).
bool mapped_here(const std::string& path) {
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    if (line.find(path) != std::string::npos) return true;
  }
  return false;
}

TEST(Journal, TornTailIsCutAfterTheMappingIsReleased) {
  // The open reads the file through a mapping, which it releases before
  // it truncates a torn tail: nothing of the file stays mapped, the tail
  // is gone, and the next append lands right after the kept prefix.
  TempDir dir("semsim_journal_unmapped");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/j.wal";
  craft_journal(path, {submit_record(1, sweep_envelope()),
                       bare_record(JournalRecord::Type::kStart, 1)});
  const std::string clean = read_bytes(path);
  const std::string next =
      frame_of(body_head(JournalRecord::Type::kCancel, 1));
  write_file(path, clean + next.substr(0, 11));
  {
    JobJournal j(path);
    EXPECT_FALSE(mapped_here(path));
    EXPECT_EQ(j.take_records().size(), 2u);
    EXPECT_EQ(j.truncated_bytes(), 11u);
    EXPECT_EQ(read_bytes(path), clean);
    j.append(bare_record(JournalRecord::Type::kCancel, 1));
  }
  EXPECT_EQ(read_bytes(path), clean + next);
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
  EXPECT_EQ(*sched.result(1),
            run(sweep_request()).to_json(/*canonical=*/true));
  // Ids are never reused: the next submit lands past every replayed id.
  EXPECT_EQ(sched.submit(sweep_envelope(/*seed=*/8)), 2u);
  sched.shutdown();
}

TEST(Replay, RetiredFastRatesRecordReplaysOnlyAsFalse) {
  // Journals written while the approximate kernel existed hold
  // "fast_rates":false after "adaptive" in every submit record: such a job
  // replays to the document of a fresh run. A record asking for the kernel
  // belongs to an incompatible build and is refused.
  TempDir dir("semsim_replay_fast_rates");
  std::filesystem::create_directories(dir.path);
  const auto record_with = [](const char* value) {
    JournalRecord submit = submit_record(1, sweep_envelope());
    const std::string adaptive = "\"adaptive\":true,";
    const std::size_t at = submit.envelope_json.find(adaptive);
    EXPECT_NE(at, std::string::npos) << submit.envelope_json;
    submit.envelope_json.insert(at + adaptive.size(),
                                std::string("\"fast_rates\":") + value + ",");
    return submit;
  };
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.journal_path = dir.path + "/false.wal";
  craft_journal(cfg.journal_path, {record_with("false")});
  {
    JobScheduler sched(cfg);
    EXPECT_EQ(sched.stats().replayed, 1u);
    const JobStatus s = wait_terminal(sched, 1);
    ASSERT_EQ(s.state, JobState::kDone) << s.error;
    EXPECT_EQ(*sched.result(1),
              run(sweep_request()).to_json(/*canonical=*/true));
    sched.shutdown();
  }
  cfg.journal_path = dir.path + "/true.wal";
  craft_journal(cfg.journal_path, {record_with("true")});
  EXPECT_EQ(code_of([&] { JobScheduler sched(cfg); }),
            ErrorCode::kServeJournalCorrupt);
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
  EXPECT_EQ(*sched.result(1), "FAKEDOC");
  EXPECT_EQ(sched.stats().completed, 1u);
  // And its document re-seeded the fingerprint cache: an identical submit
  // is born done.
  const std::uint64_t id2 = sched.submit(sweep_envelope());
  const JobStatus s2 = *sched.status(id2);
  EXPECT_EQ(s2.state, JobState::kDone);
  EXPECT_TRUE(s2.cached);
  EXPECT_EQ(*sched.result(id2), "FAKEDOC");
  sched.shutdown();
}

TEST(Replay, CacheHitJobReplaysAsCached) {
  // The journal has no cached flag: the dispatcher journals a start before
  // every run, so a done record with no start before it was a cache hit.
  TempDir dir("semsim_replay_cached");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.journal_path = dir.path + "/j.wal";
  {
    JobScheduler sched(cfg);
    const std::uint64_t computed = sched.submit(sweep_envelope());
    ASSERT_EQ(wait_terminal(sched, computed).state, JobState::kDone);
    const std::uint64_t hit = sched.submit(sweep_envelope());
    ASSERT_TRUE(sched.status(hit)->cached);
    sched.shutdown();
  }
  JobScheduler sched(cfg);
  EXPECT_FALSE(sched.status(1)->cached);
  EXPECT_TRUE(sched.status(2)->cached);
  EXPECT_EQ(sched.stats().completed, 2u);
  EXPECT_EQ(sched.stats().cache_hits, 1u);
  sched.shutdown();
}

TEST(Replay, DoneRecordsReseedTheCacheUnderTheirKeys) {
  // A faulty run's done record re-seeds nothing; a strict run's re-seeds
  // the strict key only.
  TempDir dir("semsim_replay_keys");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  RequestEnvelope strict = sweep_envelope();
  strict.retry.strict = true;
  craft_journal(
      cfg.journal_path,
      {submit_record(1, faulty_sweep_envelope(7)),
       bare_record(JournalRecord::Type::kStart, 1),
       done_record(1, JobState::kDone, ErrorCode::kNone, "", "FAULTYDOC"),
       submit_record(2, strict),
       bare_record(JournalRecord::Type::kStart, 2),
       done_record(2, JobState::kDone, ErrorCode::kNone, "", "STRICTDOC")});

  JobScheduler sched(cfg);
  EXPECT_EQ(*sched.result(1), "FAULTYDOC");
  EXPECT_EQ(sched.cache_stats().entries, 1u);
  const std::uint64_t again = sched.submit(strict);
  EXPECT_TRUE(sched.status(again)->cached);
  EXPECT_EQ(*sched.result(again), "STRICTDOC");
  const std::uint64_t plain = sched.submit(sweep_envelope());
  const JobStatus s = wait_terminal(sched, plain);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  EXPECT_FALSE(s.cached);
  EXPECT_EQ(*sched.result(plain), run(sweep_request()).to_json(true));
  sched.shutdown();
}

TEST(Replay, ReplayedDocumentIsSharedWithTheCache) {
  // Job 1 ran and job 2 was answered from the cache: the journal holds the
  // document twice, the replayed daemon once.
  TempDir dir("semsim_replay_shared_doc");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  craft_journal(cfg.journal_path,
                {submit_record(1, sweep_envelope()),
                 bare_record(JournalRecord::Type::kStart, 1),
                 done_record(1, JobState::kDone, ErrorCode::kNone, "", "DOC"),
                 submit_record(2, sweep_envelope()),
                 done_record(2, JobState::kDone, ErrorCode::kNone, "", "DOC")});

  JobScheduler sched(cfg);
  const SharedDocument document = sched.result(1);
  EXPECT_EQ(*document, "DOC");
  EXPECT_EQ(sched.result(2), document);
  const ResultCache::Stats cs = sched.cache_stats();
  EXPECT_EQ(cs.insertions, 2u);
  EXPECT_EQ(cs.entries, 1u);
  EXPECT_EQ(cs.bytes, 3u);
  // A new submit is answered with the same object.
  const std::uint64_t id = sched.submit(sweep_envelope());
  EXPECT_TRUE(sched.status(id)->cached);
  EXPECT_EQ(sched.result(id), document);
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
  EXPECT_EQ(*sched.result(1), "D");
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

TEST(Replay, SameNetlistTextReplaysAsSeparateJobs) {
  // Replay parses each distinct netlist text once; jobs sharing the text
  // must still differ in everything else, here the seed.
  TempDir dir("semsim_replay_shared_netlist");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.journal_path = dir.path + "/j.wal";
  craft_journal(cfg.journal_path,
                {submit_record(1, sweep_envelope(/*seed=*/7)),
                 submit_record(2, sweep_envelope(/*seed=*/8))});

  JobScheduler sched(cfg);
  EXPECT_EQ(sched.stats().replayed, 2u);
  for (const std::uint64_t id : {1u, 2u}) {
    SCOPED_TRACE("job " + std::to_string(id));
    const std::uint64_t seed = 6 + id;
    const JobStatus s = wait_terminal(sched, id);
    ASSERT_EQ(s.state, JobState::kDone) << s.error;
    EXPECT_EQ(s.fingerprint, sweep_request(1, seed).fingerprint());
    EXPECT_EQ(*sched.result(id),
              run(sweep_request(1, seed)).to_json(/*canonical=*/true));
  }
  EXPECT_NE(sched.status(1)->fingerprint, sched.status(2)->fingerprint);
  sched.shutdown();
}

TEST(Replay, SubmitWhoseNetlistNoLongerParsesIsCorrupt) {
  TempDir dir("semsim_replay_bad_netlist");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.journal_path = dir.path + "/j.wal";
  RequestEnvelope broken = sweep_envelope();
  broken.netlist = "num ext 3\njunc 1 1 9 1meg\n";
  craft_journal(cfg.journal_path, {submit_record(1, sweep_envelope()),
                                   submit_record(2, broken),
                                   submit_record(3, broken)});
  EXPECT_EQ(code_of([&] { JobScheduler sched(cfg); }),
            ErrorCode::kServeJournalCorrupt);
}

TEST(Replay, FinishedSweepKeepsItsIdentityAndReadsZeroProgress) {
  // Replay restores what the journal holds: state, cached, fingerprint,
  // priority, client, deadline and error. The journal holds no progress,
  // so a replayed job's progress block reads zero.
  TempDir dir("semsim_replay_progress");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.journal_path = dir.path + "/j.wal";
  RequestEnvelope env = sweep_envelope(/*seed=*/11);
  env.priority = 3;
  env.client = "farm-2";
  env.deadline_ms = 3600 * 1000;
  JobStatus before;
  {
    JobScheduler sched(cfg);
    before = wait_terminal(sched, sched.submit(env));
    sched.shutdown();
  }
  ASSERT_EQ(before.state, JobState::kDone) << before.error;
  ASSERT_GT(before.units_total, 0u);
  EXPECT_EQ(before.units_done, before.units_total);
  ASSERT_GT(before.points_total, 0u);
  EXPECT_EQ(before.points_done, before.points_total);
  EXPECT_EQ(before.partial.size(), before.points_total);

  JobScheduler sched(cfg);
  const JobStatus after = *sched.status(before.id);
  EXPECT_EQ(after.id, before.id);
  EXPECT_EQ(after.state, before.state);
  EXPECT_EQ(after.priority, before.priority);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_EQ(after.cached, before.cached);
  EXPECT_EQ(after.deadline_unix_ms, before.deadline_unix_ms);
  EXPECT_EQ(after.client, before.client);
  EXPECT_EQ(after.error, before.error);
  EXPECT_EQ(after.error_code, before.error_code);
  EXPECT_EQ(after.checkpoint_path, before.checkpoint_path);
  EXPECT_EQ(after.units_total, 0u);
  EXPECT_EQ(after.units_done, 0u);
  EXPECT_EQ(after.points_total, 0u);
  EXPECT_EQ(after.points_done, 0u);
  EXPECT_EQ(after.degraded_points, 0u);
  EXPECT_EQ(after.replicas_total, 0u);
  EXPECT_EQ(after.replicas_done, 0u);
  EXPECT_TRUE(after.partial.empty());
  sched.shutdown();
}

TEST(Replay, EveryKindOfJobComesBackAsItWasLeft) {
  // Finished jobs replay without run inputs, from the input their
  // (netlist, repeats) shares; jobs left to run get their own. Each kind
  // must come back with the status, counts, result and queue place a
  // daemon that never stopped would show.
  TempDir dir("semsim_replay_kinds");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.journal_path = dir.path + "/j.wal";
  RequestEnvelope repeated = sweep_envelope(/*seed=*/7);
  repeated.repeats = 2;
  RequestEnvelope urgent = sweep_envelope(/*seed=*/13);
  urgent.priority = 5;
  using Type = JournalRecord::Type;
  const std::vector<JournalRecord> journaled = {
      submit_record(1, repeated),
      bare_record(Type::kStart, 1),
      done_record(1, JobState::kDone, ErrorCode::kNone, "", "REPEATED"),
      submit_record(2, repeated),  // a cache hit: done without a start
      done_record(2, JobState::kDone, ErrorCode::kNone, "", "REPEATED"),
      submit_record(3, sweep_envelope(8)),
      bare_record(Type::kStart, 3),
      done_record(3, JobState::kFailed, ErrorCode::kNonFiniteRate,
                  "unit 2: non-finite rate", ""),
      submit_record(4, sweep_envelope(9)),
      bare_record(Type::kCancel, 4),
      done_record(4, JobState::kCancelled, ErrorCode::kCancelled,
                  "cancelled while queued", ""),
      submit_record(5, sweep_envelope(10)),
      bare_record(Type::kCancel, 5),  // never processed
      submit_record(6, sweep_envelope(11)),
      bare_record(Type::kStart, 6),  // left running
      submit_record(7, sweep_envelope(12)),
      submit_record(8, urgent),
  };
  craft_journal(cfg.journal_path, journaled);

  RunRequest with_repeats = sweep_request(1, 7);
  with_repeats.input.repeats = 2;
  const std::uint64_t repeated_fp = with_repeats.fingerprint();
  ASSERT_NE(repeated_fp, sweep_request(1, 7).fingerprint());

  JobScheduler sched(cfg);
  const JobScheduler::Stats st = sched.stats();
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.replayed, 8u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.cancelled, 2u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_GE(st.completed, 2u);
  EXPECT_EQ(st.journal_truncated_bytes, 0u);

  const JobStatus ran = *sched.status(1);
  EXPECT_EQ(ran.state, JobState::kDone);
  EXPECT_FALSE(ran.cached);
  EXPECT_EQ(ran.fingerprint, repeated_fp);
  const JobStatus hit = *sched.status(2);
  EXPECT_EQ(hit.state, JobState::kDone);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.fingerprint, repeated_fp);
  EXPECT_EQ(*sched.result(1), "REPEATED");
  EXPECT_EQ(sched.result(2), sched.result(1));
  const JobStatus failed = *sched.status(3);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_EQ(failed.error_code, ErrorCode::kNonFiniteRate);
  EXPECT_EQ(failed.error, "unit 2: non-finite rate");
  EXPECT_EQ(failed.fingerprint, sweep_request(1, 8).fingerprint());
  EXPECT_EQ(code_of([&] { sched.result(3); }), ErrorCode::kServeJobNotReady);
  const JobStatus cancelled = *sched.status(4);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.error, "cancelled while queued");
  const JobStatus late_cancel = *sched.status(5);
  EXPECT_EQ(late_cancel.state, JobState::kCancelled);
  EXPECT_EQ(late_cancel.error_code, ErrorCode::kCancelled);
  EXPECT_EQ(late_cancel.error, "cancelled (cancel replayed from journal)");

  // The repeats job kept its fingerprint: resubmitting it is a cache hit.
  const std::uint64_t again = sched.submit(repeated);
  EXPECT_EQ(again, 9u);
  EXPECT_TRUE(sched.status(again)->cached);
  EXPECT_EQ(sched.status(again)->fingerprint, repeated_fp);
  EXPECT_EQ(sched.result(again), sched.result(1));

  // The jobs left to run produce a fresh run's bytes.
  for (const auto& [id, seed] : std::vector<std::pair<std::uint64_t,
                                                      std::uint64_t>>{
           {6, 11}, {7, 12}, {8, 13}}) {
    SCOPED_TRACE("job " + std::to_string(id));
    const JobStatus s = wait_terminal(sched, id);
    ASSERT_EQ(s.state, JobState::kDone) << s.error;
    EXPECT_FALSE(s.cached);
    EXPECT_EQ(s.fingerprint, sweep_request(1, seed).fingerprint());
    EXPECT_EQ(*sched.result(id),
              run(sweep_request(1, seed)).to_json(/*canonical=*/true));
  }
  EXPECT_EQ(sched.stats().completed, 6u);
  sched.shutdown();

  // Queue order: the higher priority first, then submission order. The
  // dispatcher journals a start before each run.
  std::vector<std::uint64_t> starts;
  const std::vector<JournalRecord> records =
      JobJournal(cfg.journal_path).take_records();
  ASSERT_GT(records.size(), journaled.size());
  for (std::size_t i = journaled.size(); i < records.size(); ++i) {
    if (records[i].type == Type::kStart) starts.push_back(records[i].job_id);
  }
  EXPECT_EQ(starts, (std::vector<std::uint64_t>{8, 6, 7}));
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

TEST(Overload, InflightCapFreesAtTerminalAndCountsReplayedJobs) {
  TempDir dir("semsim_overload_replay");
  std::filesystem::create_directories(dir.path);
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.max_inflight_per_client = 1;
  cfg.journal_path = dir.path + "/j.wal";
  // A job the last daemon never finished: replay re-enqueues it, and it
  // holds its client's one slot.
  JournalRecord pending = submit_record(1, slow_sweep_envelope());
  pending.client = "alice";
  craft_journal(cfg.journal_path, {pending});
  // Slowed, so each admitted job holds the slot while the next submit
  // probes it.
  const auto alice = [](std::uint64_t seed) {
    RequestEnvelope env = slow_sweep_envelope(/*millis=*/100);
    env.seed = seed;
    env.client = "alice";
    return env;
  };

  JobScheduler sched(cfg);
  EXPECT_EQ(code_of([&] { sched.submit(alice(8)); }),
            ErrorCode::kServerOverloaded);
  // Cancelling it frees the slot ...
  EXPECT_TRUE(sched.cancel(1));
  EXPECT_EQ(wait_terminal(sched, 1).state, JobState::kCancelled);
  const std::uint64_t second = sched.submit(alice(8));
  EXPECT_EQ(code_of([&] { sched.submit(alice(9)); }),
            ErrorCode::kServerOverloaded);
  // ... and so does finishing.
  ASSERT_EQ(wait_terminal(sched, second).state, JobState::kDone);
  const std::uint64_t third = sched.submit(alice(9));
  EXPECT_EQ(wait_terminal(sched, third).state, JobState::kDone);
  EXPECT_EQ(sched.stats().overload_rejected, 2u);
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
