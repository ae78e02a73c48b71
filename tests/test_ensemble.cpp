// Ensemble lockdown (the v3 run API).
//
// Two layers under test here:
//
//   * analysis/ensemble.h — replica determinism (thread-count invariant
//     canonical documents, replica rows independent of the population
//     size), perturbation purity, and per-replica fault degradation;
//   * the v3 surface — the "ensemble" document object, fingerprint folding
//     (disabled spec == pre-ensemble bytes), the envelope codec, and the
//     serve daemon: served-vs-direct bitwise, cache hits, and cancel ->
//     resume through the replica-granular spool checkpoint.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/api.h"
#include "analysis/ensemble.h"
#include "analysis/ensemble_driver.h"
#include "base/error.h"
#include "core/engine.h"
#include "core/options.h"
#include "io/envelope.h"
#include "io/json.h"
#include "netlist/circuit.h"
#include "netlist/parser.h"
#include "netlist/waveform.h"
#include "obs/ensemble_stats.h"
#include "serve/scheduler.h"

namespace semsim {
namespace {

// ---- fixtures -------------------------------------------------------------

/// Plain measurement input (no sweep): the solo-engine replica body.
constexpr char kMeasureInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.005
vdc 2 -0.005
vdc 3 0.0
temp 5
record 1 2
jumps 1500
)";

// ---- analysis layer: determinism and fault degradation --------------------

RunRequest ensemble_request(std::uint32_t replicas, unsigned threads = 1,
                            std::uint64_t seed = 9) {
  RunRequest req;
  req.input = parse_simulation_input(kMeasureInput);
  req.seed = seed;
  req.threads = threads;
  req.ensemble.enabled = true;
  req.ensemble.replicas = replicas;
  req.ensemble.bg_charge.spread = 0.05;
  req.ensemble.resistance.spread = 0.03;
  return req;
}

TEST(EnsembleDeterminism, CanonicalDocumentIsThreadCountInvariant) {
  // 10 replica units, sharded across 1 and 8 workers: the
  // canonical v3 documents must be byte-identical (replica streams derive
  // from the replica index, never the executing thread).
  const RunResult r1 = run(ensemble_request(10, 1));
  const RunResult r8 = run(ensemble_request(10, 8));
  EXPECT_EQ(r1.to_json(true), r8.to_json(true));
  ASSERT_TRUE(r1.driver.ensemble.has_value());
  EXPECT_EQ(r1.driver.ensemble->rows.size(), 10u);
  EXPECT_EQ(r1.driver.ensemble->observable_stats.n_ok, 10u);
}

TEST(EnsembleDeterminism, ReplicaRowsIndependentOfPopulationSize) {
  // Replica r's device AND trajectory are pure functions of (effective
  // seed, r): growing the population from 4 to 8 replicas must not move a
  // bit in the first four rows.
  const RunResult small = run(ensemble_request(4));
  const RunResult big = run(ensemble_request(8));
  ASSERT_TRUE(small.driver.ensemble.has_value());
  ASSERT_TRUE(big.driver.ensemble.has_value());
  for (std::size_t r = 0; r < 4; ++r) {
    const ReplicaRow& a = small.driver.ensemble->rows[r];
    const ReplicaRow& b = big.driver.ensemble->rows[r];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.observable),
              std::bit_cast<std::uint64_t>(b.observable))
        << "replica " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.current.stderr_mean),
              std::bit_cast<std::uint64_t>(b.current.stderr_mean))
        << "replica " << r;
    ASSERT_EQ(a.events, b.events) << "replica " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.sim_time),
              std::bit_cast<std::uint64_t>(b.sim_time))
        << "replica " << r;
  }
}

TEST(EnsembleDeterminism, UnperturbedSingleReplicaMatchesSoloRunBitwise) {
  // The N = 1, zero-spread ensemble runs the solo device on the solo stream
  // as one replica unit: the measurement must be the non-ensemble result
  // bit for bit (the "N = 1 path identical" acceptance gate).
  RunRequest solo;
  solo.input = parse_simulation_input(kMeasureInput);
  solo.seed = 9;
  const RunResult direct = run(solo);

  RunRequest ens = solo;
  ens.ensemble.enabled = true;
  ens.ensemble.replicas = 1;
  const RunResult replica = run(ens);

  ASSERT_TRUE(direct.driver.current.has_value());
  ASSERT_TRUE(replica.driver.current.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.driver.current->mean),
            std::bit_cast<std::uint64_t>(replica.driver.current->mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.driver.current->stderr_mean),
            std::bit_cast<std::uint64_t>(replica.driver.current->stderr_mean));
  EXPECT_EQ(direct.driver.events, replica.driver.events);
  ASSERT_TRUE(replica.driver.ensemble.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                replica.driver.ensemble->rows[0].observable),
            std::bit_cast<std::uint64_t>(direct.driver.current->mean));
}

TEST(EnsembleDeterminism, PerturbationDrawsArePureAndSeedScoped) {
  const SimulationInput input = parse_simulation_input(kMeasureInput);
  EnsembleSpec spec;
  spec.enabled = true;
  spec.replicas = 8;
  spec.bg_charge.spread = 0.1;
  spec.resistance.spread = 0.05;
  spec.capacitance.spread = 0.02;
  spec.temperature.spread = 0.01;

  const ReplicaPerturbation a = draw_replica_perturbation(input, spec, 42, 3);
  const ReplicaPerturbation b = draw_replica_perturbation(input, spec, 42, 3);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.temperature_factor),
            std::bit_cast<std::uint64_t>(b.temperature_factor));
  ASSERT_EQ(a.r_factor.size(), input.circuit.junction_count());
  ASSERT_EQ(a.bg_offset_e.size(), input.circuit.islands().size());
  for (std::size_t j = 0; j < a.r_factor.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.r_factor[j]),
              std::bit_cast<std::uint64_t>(b.r_factor[j]));
    EXPECT_GT(a.r_factor[j], 0.0);  // clamped to the physical floor
    EXPECT_GT(a.c_factor[j], 0.0);
  }
  // A different replica (or seed) is a different, non-trivial draw.
  const ReplicaPerturbation c = draw_replica_perturbation(input, spec, 42, 4);
  EXPECT_NE(a.bg_offset_e[0], c.bg_offset_e[0]);
  const ReplicaPerturbation d = draw_replica_perturbation(input, spec, 43, 3);
  EXPECT_NE(a.bg_offset_e[0], d.bg_offset_e[0]);

  // spec.seed overrides the run seed; 0 inherits it.
  EnsembleSpec pinned = spec;
  pinned.seed = 42;
  EXPECT_EQ(ensemble_effective_seed(pinned, 7), 42u);
  EXPECT_EQ(ensemble_effective_seed(spec, 7), 7u);

  // materialize_replica applies the draws to the element tables.
  const SimulationInput rep = materialize_replica(input, spec, 42, 3);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.circuit.junction(0).resistance),
            std::bit_cast<std::uint64_t>(
                input.circuit.junction(0).resistance * a.r_factor[0]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.temperature),
            std::bit_cast<std::uint64_t>(
                input.temperature * a.temperature_factor));
}

TEST(EnsembleFaultIsolation, PoisonedReplicaDegradesRestBitwiseIdentical) {
  // Replica 2's engine (and its solo retries — the fault matches every
  // attempt) corrupts a rate: the row must degrade to failed:<code>, count
  // against the yield, and leave the other N - 1 rows bitwise identical to
  // the clean run.
  const RunResult clean = run(ensemble_request(6));

  FaultPlan plan;
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 2;
  f.at_event = 100;
  plan.faults.push_back(f);
  RunRequest req = ensemble_request(6);
  req.fault_plan = &plan;
  req.retry.max_attempts = 2;
  const RunResult faulted = run(req);

  ASSERT_TRUE(faulted.driver.ensemble.has_value());
  const EnsembleResult& e = *faulted.driver.ensemble;
  ASSERT_EQ(e.rows.size(), 6u);
  EXPECT_FALSE(e.rows[2].ok);
  EXPECT_EQ(e.rows[2].code, ErrorCode::kNonFiniteRate);
  EXPECT_EQ(replica_status_label(e.rows[2]), "failed:invariant.non_finite_rate");
  EXPECT_EQ(e.rows[2].attempts, 2u);
  EXPECT_TRUE(faulted.driver.degraded());
  EXPECT_EQ(e.observable_stats.n_ok, 5u);
  EXPECT_DOUBLE_EQ(e.observable_stats.yield, 5.0 / 6.0);
  for (std::size_t r = 0; r < 6; ++r) {
    if (r == 2) continue;
    const ReplicaRow& want = clean.driver.ensemble->rows[r];
    const ReplicaRow& got = e.rows[r];
    EXPECT_TRUE(got.ok) << "replica " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.observable),
              std::bit_cast<std::uint64_t>(want.observable))
        << "replica " << r;
    ASSERT_EQ(got.events, want.events) << "replica " << r;
  }
}

TEST(EnsembleFaultIsolation, StrictModeAbortsWithTheReplicaInContext) {
  FaultPlan plan;
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 1;
  f.at_event = 80;
  plan.faults.push_back(f);
  RunRequest req = ensemble_request(3);
  req.fault_plan = &plan;
  req.retry.strict = true;
  try {
    run(req);
    FAIL() << "strict ensemble run with a poisoned replica did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFiniteRate);
    EXPECT_NE(std::string(e.what()).find("replica 1"), std::string::npos)
        << e.what();
  }
}

TEST(EnsembleProgress, ReplicaCompletionStreamsToTheSink) {
  // A replica is one work unit: the run announces the population as its
  // unit count and reports every replica exactly once.
  struct RecordingSink : ProgressSink {
    std::uint64_t started = 0;
    std::vector<std::size_t> done;
    void on_run_started(std::uint64_t units_total, std::uint64_t) override {
      started = units_total;
    }
    void on_unit_done(std::size_t unit) override { done.push_back(unit); }
  } sink;
  RunRequest req = ensemble_request(5);
  req.progress = &sink;
  run(req);
  EXPECT_EQ(sink.started, 5u);
  ASSERT_EQ(sink.done.size(), 5u);
  std::vector<std::size_t> sorted = sink.done;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---- spec validation and band statistics ----------------------------------

TEST(EnsembleSpecTest, ValidateRejectsStructuralNonsense) {
  const auto code_of = [](EnsembleSpec spec) {
    try {
      spec.validate();
    } catch (const Error& e) {
      return e.code();
    }
    return ErrorCode::kNone;
  };
  EnsembleSpec ok;
  EXPECT_EQ(code_of(ok), ErrorCode::kNone);

  EnsembleSpec zero = ok;
  zero.replicas = 0;
  EXPECT_NE(code_of(zero), ErrorCode::kNone);

  EnsembleSpec negative = ok;
  negative.resistance.spread = -0.1;
  EXPECT_NE(code_of(negative), ErrorCode::kNone);

  EnsembleSpec nan = ok;
  nan.bg_charge.spread = std::nan("");
  EXPECT_NE(code_of(nan), ErrorCode::kNone);

  EnsembleSpec inverted = ok;
  inverted.yield_min = 2.0;
  inverted.yield_max = 1.0;
  EXPECT_NE(code_of(inverted), ErrorCode::kNone);

  // Wire spellings of the distributions round-trip; garbage is refused.
  PerturbationSpec::Dist dist;
  ASSERT_TRUE(perturbation_dist_from("uniform", &dist));
  EXPECT_EQ(dist, PerturbationSpec::Dist::kUniform);
  ASSERT_TRUE(perturbation_dist_from(
      perturbation_dist_name(PerturbationSpec::Dist::kGaussian), &dist));
  EXPECT_EQ(dist, PerturbationSpec::Dist::kGaussian);
  EXPECT_FALSE(perturbation_dist_from("lognormal", &dist));
}

TEST(EnsembleSpecTest, AccumulatorBandsAndYieldWindow) {
  EnsembleAccumulator a(/*yield_min=*/1.0, /*yield_max=*/3.0);
  a.add_ok(2.0);    // in window
  a.add_ok(-2.5);   // |.| in window
  a.add_ok(4.0);    // ok but outside the window: a yield loss
  a.add_failed();   // failed replica: counted in the denominator
  EXPECT_EQ(a.n_ok(), 3u);
  EXPECT_EQ(a.n_total(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), (2.0 - 2.5 + 4.0) / 3.0);
  EXPECT_DOUBLE_EQ(a.min(), -2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.yield(), 2.0 / 4.0);
  EXPECT_GT(a.spread(), 0.0);
  // Degenerate cases stay finite and defined.
  EnsembleAccumulator empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.spread(), 0.0);
  EXPECT_DOUBLE_EQ(empty.yield(), 0.0);
}

// ---- the v3 document and fingerprint --------------------------------------

TEST(EnsembleV3Json, DocumentCarriesSpecRowsAndBands) {
  RunRequest req = ensemble_request(4);
  req.ensemble.yield_min = 1e-22;
  const RunResult res = run(req);
  const JsonValue doc = JsonValue::parse(res.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "semsim.run_result/v3");
  const JsonValue& ens = doc.at("ensemble");
  EXPECT_EQ(ens.at("replicas").as_number(), 4.0);
  EXPECT_EQ(ens.at("spec").at("bg_spread").as_number(), 0.05);
  EXPECT_EQ(ens.at("spec").at("bg_dist").as_string(), "gaussian");
  const auto& rows = ens.at("replica_rows").items();
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r].at("replica").as_number(), static_cast<double>(r));
    EXPECT_EQ(rows[r].at("status").as_string(), "ok");
  }
  const JsonValue& band = ens.at("stats");
  EXPECT_TRUE(std::isfinite(band.at("mean_A").as_number()));
  EXPECT_LE(band.at("min_A").as_number(), band.at("max_A").as_number());
  EXPECT_EQ(band.at("n_ok").as_number(), 4.0);
  EXPECT_EQ(band.at("yield").as_number(), 1.0);
}

TEST(EnsembleV3Json, NonEnsembleDocumentKeepsTheV2Shape) {
  RunRequest req;
  req.input = parse_simulation_input(kMeasureInput);
  req.seed = 3;
  const RunResult res = run(req);
  const JsonValue doc = JsonValue::parse(res.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "semsim.run_result/v3");
  // Absent "ensemble" object == exactly the v2 shape: v2 readers that
  // ignore the schema suffix keep parsing these documents.
  EXPECT_EQ(doc.find("ensemble"), nullptr);
}

TEST(EnsembleV3Json, FingerprintFoldsTheSpecOnlyWhenEnabled) {
  RunRequest base;
  base.input = parse_simulation_input(kMeasureInput);
  base.seed = 9;
  const std::uint64_t fp = base.fingerprint();

  // A DISABLED spec — whatever its fields say — must leave the fingerprint
  // byte-identical to pre-ensemble builds (v2 checkpoint/cache compat).
  RunRequest disabled = base;
  disabled.ensemble.replicas = 64;
  disabled.ensemble.bg_charge.spread = 0.5;
  EXPECT_EQ(disabled.fingerprint(), fp);

  RunRequest enabled = base;
  enabled.ensemble.enabled = true;
  const std::uint64_t fp_on = enabled.fingerprint();
  EXPECT_NE(fp_on, fp);

  // Every result-affecting scalar of the spec moves the fingerprint.
  RunRequest r = enabled;
  r.ensemble.replicas = 16;
  EXPECT_NE(r.fingerprint(), fp_on);
  r = enabled;
  r.ensemble.seed = 1234;
  EXPECT_NE(r.fingerprint(), fp_on);
  r = enabled;
  r.ensemble.bg_charge.spread = 0.02;
  EXPECT_NE(r.fingerprint(), fp_on);
  r = enabled;
  r.ensemble.bg_charge.dist = PerturbationSpec::Dist::kUniform;
  EXPECT_NE(r.fingerprint(), fp_on);
  r = enabled;
  r.ensemble.yield_max = 1e-18;
  EXPECT_NE(r.fingerprint(), fp_on);
}

// ---- envelope codec -------------------------------------------------------

TEST(EnsembleEnvelope, SpecRoundTripsThroughTheCodec) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.netlist = kMeasureInput;
  env.seed = 21;
  env.ensemble.enabled = true;
  env.ensemble.replicas = 24;
  env.ensemble.seed = 99;
  env.ensemble.bg_charge.spread = 0.04;
  env.ensemble.bg_charge.dist = PerturbationSpec::Dist::kUniform;
  env.ensemble.resistance.spread = 0.03;
  env.ensemble.temperature.spread = 0.01;
  env.ensemble.yield_min = 1e-22;
  env.ensemble.yield_max = 1e-18;

  const RequestEnvelope back =
      parse_request_envelope(encode_request_envelope(env));
  EXPECT_TRUE(back.ensemble.enabled);
  EXPECT_EQ(back.ensemble.replicas, 24u);
  EXPECT_EQ(back.ensemble.seed, 99u);
  EXPECT_EQ(back.ensemble.bg_charge.spread, 0.04);
  EXPECT_EQ(back.ensemble.bg_charge.dist, PerturbationSpec::Dist::kUniform);
  EXPECT_EQ(back.ensemble.resistance.spread, 0.03);
  EXPECT_EQ(back.ensemble.resistance.dist, PerturbationSpec::Dist::kGaussian);
  EXPECT_EQ(back.ensemble.temperature.spread, 0.01);
  EXPECT_EQ(back.ensemble.yield_min, 1e-22);
  EXPECT_EQ(back.ensemble.yield_max, 1e-18);

  // No ensemble section on the wire == a disabled spec (v2-era requests).
  RequestEnvelope plain;
  plain.verb = RequestEnvelope::Verb::kSubmit;
  plain.netlist = kMeasureInput;
  const std::string encoded = encode_request_envelope(plain);
  EXPECT_EQ(encoded.find("ensemble"), std::string::npos);
  EXPECT_FALSE(parse_request_envelope(encoded).ensemble.enabled);
}

TEST(EnsembleEnvelope, StrictParseRejectsGarbageSpecs) {
  const auto reject = [](const std::string& ensemble_json) {
    const std::string doc =
        R"({"schema":"semsim.request/v1","verb":"submit","netlist":"x",)"
        R"("ensemble":)" +
        ensemble_json + "}";
    try {
      parse_request_envelope(doc);
    } catch (const Error& e) {
      return e.code();
    }
    return ErrorCode::kNone;
  };
  EXPECT_EQ(reject(R"({"replicas":0})"), ErrorCode::kParseSyntax);
  EXPECT_EQ(reject(R"({"replicas":4,"bg_spread":-0.5})"),
            ErrorCode::kParseSyntax);
  EXPECT_EQ(reject(R"({"replicas":4,"bg_dist":"lognormal"})"),
            ErrorCode::kParseSyntax);
  EXPECT_EQ(reject(R"({"replicas":4,"yield_min":2,"yield_max":1})"),
            ErrorCode::kParseSyntax);
  EXPECT_EQ(reject(R"("not an object")"), ErrorCode::kParseSyntax);
  EXPECT_EQ(reject(R"({"replicas":4,"bg_spread":0.1})"), ErrorCode::kNone);
}

// ---- serve daemon: served == direct, cache, cancel -> resume --------------

JobStatus wait_terminal(const JobScheduler& sched, std::uint64_t id) {
  for (;;) {
    const std::optional<JobStatus> s = sched.status(id);
    EXPECT_TRUE(s.has_value());
    if (!s.has_value() || job_state_terminal(s->state)) return *s;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

RequestEnvelope ensemble_envelope(std::uint32_t replicas,
                                  std::uint64_t seed = 9) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.netlist = kMeasureInput;
  env.seed = seed;
  env.ensemble.enabled = true;
  env.ensemble.replicas = replicas;
  env.ensemble.bg_charge.spread = 0.05;
  env.ensemble.resistance.spread = 0.03;
  return env;
}

TEST(EnsembleServe, ServedResultBitwiseIdenticalToDirectAndCached) {
  const std::string want = run(ensemble_request(10)).to_json(/*canonical=*/true);
  SchedulerConfig cfg;
  cfg.threads = 4;
  JobScheduler sched(cfg);
  const std::uint64_t id = sched.submit(ensemble_envelope(10));
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kDone) << s.error;
  EXPECT_FALSE(s.cached);
  EXPECT_EQ(*sched.result(id), want);
  // Every replica streamed a completion report to the daemon.
  EXPECT_EQ(s.units_total, 10u);
  EXPECT_EQ(s.units_done, 10u);

  // The ensemble spec is folded into the cache key: a resubmission is born
  // done, and a different spec is a different fingerprint.
  const std::uint64_t again = sched.submit(ensemble_envelope(10));
  const std::optional<JobStatus> s2 = sched.status(again);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->state, JobState::kDone);
  EXPECT_TRUE(s2->cached);
  EXPECT_EQ(*sched.result(again), want);
  const std::uint64_t other = sched.submit(ensemble_envelope(12));
  const JobStatus s3 = wait_terminal(sched, other);
  EXPECT_EQ(s3.state, JobState::kDone) << s3.error;
  EXPECT_FALSE(s3.cached);
  EXPECT_NE(*sched.result(other), want);
  sched.shutdown();
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path("/tmp/" + stem + "." + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(EnsembleServe, CancelLeavesReplicaSpoolAndResumeIsBitwise) {
  // 12 replica units on one worker. A sleep fault parks replica 4 for half
  // a second: replicas 0-3 reach the spool, the cancel lands while replica
  // 4 sleeps, and replicas 5-11 are never started. The resubmitted job
  // restores the spooled replicas and completes to the SAME canonical bytes
  // as an uninterrupted direct run.
  const std::string want = run(ensemble_request(12)).to_json(/*canonical=*/true);
  TempDir spool("semsim_ensemble_cancel_spool");
  SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.spool_dir = spool.path;
  JobScheduler sched(cfg);

  RequestEnvelope slow = ensemble_envelope(12);
  FaultSpec f;
  f.kind = FaultKind::kSleep;
  f.unit = 4;
  f.at_event = 50;
  f.millis = 500;
  slow.fault.faults.push_back(f);
  const std::uint64_t id = sched.submit(slow);
  for (;;) {
    const std::optional<JobStatus> s = sched.status(id);
    ASSERT_TRUE(s.has_value());
    if (s->units_done >= 1 || job_state_terminal(s->state)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::optional<JobStatus> mid = sched.status(id);
  ASSERT_TRUE(mid.has_value());
  ASSERT_FALSE(job_state_terminal(mid->state))
      << "job finished before cancel could land; raise the sleep fault";
  EXPECT_TRUE(sched.cancel(id));
  const JobStatus s = wait_terminal(sched, id);
  ASSERT_EQ(s.state, JobState::kCancelled);
  ASSERT_FALSE(s.checkpoint_path.empty());
  EXPECT_TRUE(std::filesystem::exists(s.checkpoint_path));

  // Same fingerprint (the fault plan is not part of it): resumes from the
  // replica-granular spool and completes bitwise.
  const std::uint64_t again = sched.submit(ensemble_envelope(12));
  const JobStatus s2 = wait_terminal(sched, again);
  ASSERT_EQ(s2.state, JobState::kDone) << s2.error;
  EXPECT_FALSE(s2.cached);
  EXPECT_EQ(*sched.result(again), want);
  EXPECT_FALSE(std::filesystem::exists(s.checkpoint_path));
  sched.shutdown();
}

}  // namespace
}  // namespace semsim
