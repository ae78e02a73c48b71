// Runtime integrity layer (src/guard/): the coded error taxonomy, the
// retry determinism contract, deterministic fault injection, the invariant
// auditor's detection paths — every injected fault class must surface with
// the RIGHT error code, not just "an exception" — and the fault-isolated
// sweep/repeat drivers that degrade a single poisoned work unit to a
// `failed:<code>` row instead of aborting the run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/api.h"
#include "analysis/driver.h"
#include "analysis/sweep.h"
#include "base/constants.h"
#include "base/error.h"
#include "base/fenwick.h"
#include "base/random.h"
#include "core/engine.h"
#include "guard/exit_codes.h"
#include "guard/fault.h"
#include "guard/integrity.h"
#include "guard/retry.h"
#include "io/json.h"
#include "logic/devices.h"
#include "netlist/parser.h"
#include "obs/checkpoint.h"

namespace semsim {
namespace {

// ---- error taxonomy -------------------------------------------------------

TEST(ErrorTaxonomy, CategoryIsTheHundredsDigit) {
  EXPECT_EQ(category_of(ErrorCode::kParseSyntax), ErrorCategory::kParse);
  EXPECT_EQ(category_of(ErrorCode::kCircuitSelfLoop), ErrorCategory::kCircuit);
  EXPECT_EQ(category_of(ErrorCode::kNotPositiveDefinite),
            ErrorCategory::kNumeric);
  EXPECT_EQ(category_of(ErrorCode::kNonFiniteRate), ErrorCategory::kInvariant);
  EXPECT_EQ(category_of(ErrorCode::kCheckpointCorrupt), ErrorCategory::kIo);
  EXPECT_EQ(category_of(ErrorCode::kWatchdogWallClock),
            ErrorCategory::kTimeout);
  EXPECT_EQ(category_of(ErrorCode::kUnknown), ErrorCategory::kInternal);
  EXPECT_EQ(category_of(ErrorCode::kNone), ErrorCategory::kNone);
}

TEST(ErrorTaxonomy, NamesAreStableDottedStrings) {
  // These strings feed sweep status columns and JSON documents; they are
  // part of the output contract, so spell them out.
  EXPECT_STREQ(error_code_name(ErrorCode::kNonFiniteRate),
               "invariant.non_finite_rate");
  EXPECT_STREQ(error_code_name(ErrorCode::kChargeNotConserved),
               "invariant.charge_not_conserved");
  EXPECT_STREQ(error_code_name(ErrorCode::kNotPositiveDefinite),
               "numeric.not_positive_definite");
  EXPECT_STREQ(error_code_name(ErrorCode::kCheckpointCorrupt),
               "io.checkpoint_corrupt");
  EXPECT_STREQ(error_code_name(ErrorCode::kWatchdogWallClock),
               "timeout.wall_clock");
}

TEST(ErrorTaxonomy, SeverityDrivesRetryability) {
  // Recoverable: one run went bad, a re-seeded attempt may succeed.
  EXPECT_TRUE(is_retryable(ErrorCode::kNumericFailure));
  EXPECT_TRUE(is_retryable(ErrorCode::kNonFiniteRate));
  EXPECT_TRUE(is_retryable(ErrorCode::kWatchdogWallClock));
  // Fatal: the input or environment is wrong; retrying cannot help.
  EXPECT_FALSE(is_retryable(ErrorCode::kParseSyntax));
  EXPECT_FALSE(is_retryable(ErrorCode::kCircuitDanglingIsland));
  EXPECT_FALSE(is_retryable(ErrorCode::kCheckpointMismatch));
  EXPECT_FALSE(is_retryable(ErrorCode::kUnknown));
}

TEST(ErrorTaxonomy, ContextChainComposesOutermostFirst) {
  try {
    try {
      throw InvariantViolation(ErrorCode::kNonFiniteRate, "rate is nan");
    } catch (Error& e) {
      e.add_context("bias point 12 (V = 0.004)");
      throw;  // must preserve the concrete type
    }
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFiniteRate);
    EXPECT_EQ(e.message(), "rate is nan");
    ASSERT_EQ(e.context().size(), 1u);
    EXPECT_EQ(std::string(e.what()), "bias point 12 (V = 0.004): rate is nan");
  }
}

TEST(ErrorTaxonomy, ExitCodesMapByCategory) {
  EXPECT_EQ(exit_code_for(ParseError("bad")), kExitParse);
  EXPECT_EQ(exit_code_for(CircuitError("bad")), kExitParse);
  EXPECT_EQ(exit_code_for(NumericError("bad")), kExitNumeric);
  EXPECT_EQ(
      exit_code_for(InvariantViolation(ErrorCode::kFenwickDrift, "drift")),
      kExitNumeric);
  EXPECT_EQ(exit_code_for(IoError("bad")), kExitIo);
  EXPECT_EQ(exit_code_for(TimeoutError("slow")), kExitTimeout);
  EXPECT_EQ(exit_code_for(Error("uncoded")), kExitFailure);
}

TEST(ErrorTaxonomy, ChecksKeepTheirMessagesAndCodes) {
  // Literal and computed messages throw the same coded Error; only the
  // moment the string is built changed.
  using Thrown = std::pair<ErrorCode, std::string>;
  const auto thrown = [](const auto& check) -> Thrown {
    try {
      check();
    } catch (const Error& e) {
      return {e.code(), e.message()};
    }
    return {ErrorCode::kNone, ""};
  };
  EXPECT_EQ(thrown([] { require(false, "literal"); }),
            Thrown(ErrorCode::kUnknown, "literal"));
  EXPECT_EQ(thrown([] { require(false, ErrorCode::kFenwickDrift, "coded"); }),
            Thrown(ErrorCode::kFenwickDrift, "coded"));
  EXPECT_EQ(thrown([] { require(false, std::string("built")); }),
            Thrown(ErrorCode::kUnknown, "built"));
  EXPECT_EQ(thrown([] { require(true, "passes"); }),
            Thrown(ErrorCode::kNone, ""));
  EXPECT_EQ(thrown([] { JsonValue::parse("{}").at("events"); }),
            Thrown(ErrorCode::kUnknown, "json: missing member 'events'"));
}

// ---- retry determinism contract ------------------------------------------

TEST(RetrySeed, AttemptZeroIsExactlyTheDeriveStreamSeed) {
  // THE contract: a run where nothing fails must be bitwise identical to a
  // run without the retry layer, so attempt 0 cannot re-salt the stream.
  for (std::uint64_t unit = 0; unit < 64; ++unit) {
    EXPECT_EQ(retry_stream_seed(7, unit, 0), derive_stream_seed(7, unit));
  }
}

TEST(RetrySeed, RetriesGetFreshButDeterministicStreams) {
  EXPECT_NE(retry_stream_seed(7, 3, 1), retry_stream_seed(7, 3, 0));
  EXPECT_NE(retry_stream_seed(7, 3, 2), retry_stream_seed(7, 3, 1));
  // Pure function of (base, unit, attempt) — never of thread identity.
  EXPECT_EQ(retry_stream_seed(7, 3, 2), retry_stream_seed(7, 3, 2));
  EXPECT_NE(retry_stream_seed(7, 3, 1), retry_stream_seed(7, 4, 1));
  EXPECT_NE(retry_stream_seed(8, 3, 1), retry_stream_seed(7, 3, 1));
}

TEST(RetryPolicy_, ShouldRetryRespectsStrictAttemptsAndSeverity) {
  RetryPolicy p;
  p.max_attempts = 3;
  EXPECT_TRUE(p.should_retry(ErrorCode::kNonFiniteRate, 1));
  EXPECT_TRUE(p.should_retry(ErrorCode::kNonFiniteRate, 2));
  EXPECT_FALSE(p.should_retry(ErrorCode::kNonFiniteRate, 3));  // budget spent
  EXPECT_FALSE(p.should_retry(ErrorCode::kParseSyntax, 1));    // fatal class
  p.strict = true;
  EXPECT_FALSE(p.should_retry(ErrorCode::kNonFiniteRate, 1));
}

// ---- fault injector matching ---------------------------------------------

TEST(FaultInjectorTest, MatchesUnitAttemptAndEvent) {
  FaultPlan plan;
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 3;
  f.attempt = 0;
  f.at_event = 100;
  plan.faults.push_back(f);

  const FaultInjector wrong_unit(&plan, 2, 0);
  EXPECT_EQ(wrong_unit.next(100), nullptr);
  const FaultInjector right(&plan, 3, 0);
  EXPECT_EQ(right.next(99), nullptr);
  ASSERT_NE(right.next(100), nullptr);
  EXPECT_EQ(right.next(100)->kind, FaultKind::kNanRate);
  EXPECT_EQ(right.next(101), nullptr);  // non-sticky: exactly one event
  // The retry rebind: the same fault must not re-fire on attempt 1.
  EXPECT_EQ(right.for_unit(3, 1).next(100), nullptr);
  EXPECT_EQ(wrong_unit.for_unit(3, 0).next(100), right.next(100));
}

TEST(FaultInjectorTest, StickyFaultsKeepFiring) {
  FaultPlan plan;
  FaultSpec f;
  f.kind = FaultKind::kStallClock;
  f.at_event = 10;  // any unit, any attempt
  f.sticky = true;
  plan.faults.push_back(f);
  const FaultInjector inj(&plan, 0, 0);
  EXPECT_EQ(inj.next(9), nullptr);
  EXPECT_NE(inj.next(10), nullptr);
  EXPECT_NE(inj.next(10'000), nullptr);
}

TEST(FaultInjectorTest, EmptyPlanIsNeverArmed) {
  FaultPlan plan;
  EXPECT_FALSE(FaultInjector(&plan, 0, 0).armed());
  EXPECT_FALSE(FaultInjector(nullptr, 0, 0).armed());
  EXPECT_FALSE(FaultInjector().armed());
}

// ---- fixture: the paper's SET at +-20 mV (make_set) -----------------------

EngineOptions faulty_opts(const FaultPlan* plan,
                          std::uint64_t audit_interval = 16) {
  EngineOptions o;
  o.temperature = 5.0;
  o.seed = 11;
  o.audit.interval = audit_interval;
  o.fault = FaultInjector(plan, 0, 0);
  return o;
}

FaultSpec fault(FaultKind kind, std::uint64_t at_event) {
  FaultSpec f;
  f.kind = kind;
  f.at_event = at_event;
  return f;
}

/// Runs until the engine throws and returns the caught error code.
template <typename Exn>
ErrorCode run_expecting(Engine& engine, std::uint64_t budget = 100'000) {
  try {
    engine.run_events(budget);
  } catch (const Exn& e) {
    return e.code();
  }
  ADD_FAILURE() << "fault was never detected within " << budget << " events";
  return ErrorCode::kNone;
}

// ---- every injected fault class must surface with the right code ----------

TEST(FaultDetection, NanRateIsRejectedAtTheFenwickSetter) {
  // The corruption attempt itself trips the guarded setter (satellite:
  // FenwickTree::set validates weights) — detection is immediate, before
  // the poisoned total can bias a single sampling decision.
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kNanRate, 50));
  Engine engine(fx.c, faulty_opts(&plan));
  EXPECT_EQ(run_expecting<InvariantViolation>(engine),
            ErrorCode::kNonFiniteRate);
}

TEST(FaultDetection, InfRateIsRejectedAtTheFenwickSetter) {
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kInfRate, 50));
  Engine engine(fx.c, faulty_opts(&plan));
  EXPECT_EQ(run_expecting<InvariantViolation>(engine),
            ErrorCode::kNonFiniteRate);
}

TEST(FaultDetection, NegativeRateIsRejectedAtTheFenwickSetter) {
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kNegativeRate, 50));
  Engine engine(fx.c, faulty_opts(&plan));
  EXPECT_EQ(run_expecting<InvariantViolation>(engine),
            ErrorCode::kNegativeRate);
}

TEST(FaultDetection, NanPotentialNeverSurvivesAnEvent) {
  // In this single-island device every event recomputes rates from the
  // poisoned potential, so the NaN is caught the moment it flows anywhere:
  // either as a non-finite rate at the guarded Fenwick setter or as a
  // non-finite potential at the audit — both within the same event.
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kNanPotential, 50));
  Engine engine(fx.c, faulty_opts(&plan, /*audit_interval=*/16));
  const ErrorCode code = run_expecting<InvariantViolation>(engine);
  EXPECT_TRUE(code == ErrorCode::kNonFiniteRate ||
              code == ErrorCode::kNonFinitePotential)
      << error_code_name(code);
}

TEST(InvariantAuditorTest, DetectsNonFinitePotentialDirectly) {
  // The audit-side detection path, exercised on a hand-built view: a NaN
  // potential that has NOT yet flowed into any rate (the adaptive solver
  // deliberately leaves blockaded islands un-recomputed for long windows,
  // which is exactly when only the audit can see it).
  FenwickTree rates(2);
  rates.set(0, 1.0);
  rates.set(1, 2.0);
  const double island_v[] = {0.001, std::numeric_limits<double>::quiet_NaN()};
  AuditView view;
  view.rates = &rates;
  view.island_v = island_v;
  view.n_islands = 2;
  view.events = 64;
  InvariantAuditor auditor{AuditOptions{}};
  try {
    auditor.audit(view);
    FAIL() << "NaN potential passed the audit";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinitePotential);
  }
  ASSERT_EQ(auditor.report().issues.size(), 1u);
  EXPECT_EQ(auditor.report().issues[0].code, ErrorCode::kNonFinitePotential);
  EXPECT_EQ(auditor.report().issues[0].at_event, 64u);
  EXPECT_EQ(auditor.report().audits_run, 1u);
}

TEST(FaultDetection, CorruptChargeTripsChargeConservation) {
  // An electron added with no matching junction transfer must be flagged by
  // the transferred-charge balance check at the next audit.
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kCorruptCharge, 50));
  Engine engine(fx.c, faulty_opts(&plan, /*audit_interval=*/16));
  EXPECT_EQ(run_expecting<InvariantViolation>(engine),
            ErrorCode::kChargeNotConserved);
}

TEST(FaultDetection, CorruptDeltaWIsCaughtByTheAuditInAdaptiveMode) {
  // The batch-kernel path stores per-channel ΔW; in adaptive mode a stale
  // entry is only ever refreshed when its junction flags, and a NaN there
  // DISABLES the flag test (NaN comparisons are false) — the classic
  // self-hiding corruption. Give the circuit a deeply blockaded island that
  // is electrically isolated from the active SET: its ΔW slots are never
  // rewritten by events, so only the auditor's finiteness check over the
  // stored ΔW array can see the fault.
  auto fx = make_set(0.02, -0.02);
  const NodeId lead = fx.c.add_external("blk_lead");
  const NodeId blk = fx.c.add_island("blk_island");
  fx.c.add_junction(lead, blk, 1e6, 1e-18);   // junction 2 -> channels 4,5
  fx.c.add_junction(blk, lead, 1e6, 1e-18);   // junction 3 -> channels 6,7
  fx.c.add_capacitor(blk, Circuit::kGroundNode, 1e-18);
  fx.c.set_source(lead, Waveform::dc(0.0));

  FaultPlan plan;
  FaultSpec f = fault(FaultKind::kCorruptDeltaW, 50);
  f.index = 4;  // a channel of blockaded junction 2
  plan.faults.push_back(f);
  EngineOptions o = faulty_opts(&plan, /*audit_interval=*/1);
  ASSERT_TRUE(o.adaptive.enabled);
  Engine engine(fx.c, o);
  EXPECT_EQ(run_expecting<InvariantViolation>(engine),
            ErrorCode::kNonFiniteRate);
  const IntegrityReport& rep = engine.integrity_report();
  ASSERT_EQ(rep.issues.size(), 1u);
  EXPECT_NE(rep.issues[0].detail.find("delta_w"), std::string::npos)
      << rep.issues[0].detail;
}

TEST(FaultDetection, CorruptDeltaWSelfHealsInNonAdaptiveMode) {
  // The non-adaptive solver re-derives the whole ΔW store from the exact
  // potential cache inside every event, after the injection point — the
  // corruption is overwritten before any kernel or audit reads it. This is
  // the documented semantics, and it doubles as coverage for the auditor's
  // synced ΔW-vs-recompute drift check running clean on every audit.
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kCorruptDeltaW, 50));
  EngineOptions o = faulty_opts(&plan, /*audit_interval=*/1);
  o.adaptive.enabled = false;
  Engine engine(fx.c, o);
  engine.run_events(2000);
  EXPECT_TRUE(engine.integrity_report().ok());
  EXPECT_GE(engine.integrity_report().audits_run, 2000u);
}

TEST(InvariantAuditorTest, DetectsDeltaWDriftWhenSynced) {
  // Direct audit-side test of the synced recompute check: one junction
  // between island slot 0 and external slot 1.
  FenwickTree rates(2);
  rates.set(0, 1.0);
  rates.set(1, 2.0);
  const double island_v[] = {0.001};
  const std::uint32_t slot_a[] = {0};
  const std::uint32_t slot_b[] = {1};
  const double node_v[] = {0.001, 0.02};
  const double u[] = {1e-22};
  const double dv = node_v[1] - node_v[0];
  double delta_w[2] = {-kElementaryCharge * dv + u[0],
                       kElementaryCharge * dv + u[0]};

  AuditView view;
  view.rates = &rates;
  view.island_v = island_v;
  view.n_islands = 1;
  view.n_junctions = 1;
  view.slot_a = slot_a;
  view.slot_b = slot_b;
  view.delta_w = delta_w;
  view.n_delta_w = 2;
  view.node_v = node_v;
  view.charging_u = u;
  view.delta_w_synced = true;
  view.events = 32;

  InvariantAuditor auditor{AuditOptions{}};
  auditor.audit(view);  // consistent store passes

  delta_w[0] *= 1.0 + 1e-6;  // well past the 1e-9 relative tolerance
  try {
    auditor.audit(view);
    FAIL() << "drifted delta_w passed the synced audit";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeltaWDrift);
    EXPECT_STREQ(error_code_name(e.code()), "invariant.delta_w_drift");
  }

  // The same drifted store is legal when the engine marks it stale-by-design
  // (adaptive mode): only finiteness is enforced then.
  view.delta_w_synced = false;
  InvariantAuditor lax{AuditOptions{}};
  lax.audit(view);

  // ...but a NaN is never legal, synced or not.
  delta_w[1] = std::numeric_limits<double>::quiet_NaN();
  try {
    lax.audit(view);
    FAIL() << "NaN delta_w passed the unsynced audit";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFiniteRate);
  }
}

TEST(InvariantAuditorTest, FenwickDriftBeyondTheCoveredPeakThrows) {
  // A fast rate replaced by a slow one leaves ~1 ulp of the old total in the
  // incremental sum. The audit judges that residue against the peak total
  // the engine reports: within 1e-6 of it passes, beyond it throws.
  FenwickTree rates(2);
  rates.set(1, 30.0);
  rates.set(0, 1e13 + 0.1);
  rates.set(0, 0.1);
  const double drift = std::abs(rates.total() - rates.exact_total());
  ASSERT_GT(drift, 1e-6 * rates.exact_total());  // the residue is real

  AuditView view;
  view.rates = &rates;
  view.events = 65536;
  view.rate_scale = 1.1 * drift / 1e-6;
  InvariantAuditor covered{AuditOptions{}};
  covered.audit(view);

  view.rate_scale = 0.9 * drift / 1e-6;
  InvariantAuditor auditor{AuditOptions{}};
  try {
    auditor.audit(view);
    FAIL() << "a drift of " << drift << " passed against a peak of "
           << view.rate_scale;
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFenwickDrift);
  }
}

TEST(InvariantAuditorTest, DeepBlockadeRunPassesTheAuditsAfterATreeRebuild) {
  // An adaptive SET in deep blockade: every event hops onto the island and
  // straight back, so the commit after the tree rebuild at event 65,536
  // swaps a fast return rate for a slow one. The audit there must judge the
  // residue against the rebuilt tree's total, not against zero.
  RunRequest req;
  req.input = parse_simulation_input(R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.004
vdc 2 -0.004
vdc 3 0.0
temp 5
record 1 2
jumps 70000
)");
  for (const std::uint64_t seed : {1u, 7u}) {
    req.seed = seed;
    const JsonValue doc = JsonValue::parse(run(req).to_json());
    const JsonValue& integrity = doc.at("integrity");
    for (const JsonValue& found : integrity.at("issues").items()) {
      ADD_FAILURE() << "seed " << seed << ": " << found.at("detail").as_string();
    }
    EXPECT_FALSE(doc.at("degraded").as_bool()) << "seed " << seed;
    EXPECT_GT(doc.at("events").as_number(), 65536.0) << "seed " << seed;
    EXPECT_GT(integrity.at("audits_run").as_number(), 65536.0 / 4096.0);
  }
}

TEST(FaultDetection, StalledClockTripsTheNoProgressWatchdog) {
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  plan.faults.push_back(fault(FaultKind::kStallClock, 10));
  EngineOptions o = faulty_opts(&plan, /*audit_interval=*/64);
  o.audit.no_progress_events = 256;
  Engine engine(fx.c, o);
  EXPECT_EQ(run_expecting<InvariantViolation>(engine), ErrorCode::kNoProgress);
}

TEST(FaultDetection, SleepTripsTheWallClockWatchdog) {
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  FaultSpec f = fault(FaultKind::kSleep, 8);
  f.millis = 50;
  plan.faults.push_back(f);
  EngineOptions o = faulty_opts(&plan, /*audit_interval=*/16);
  o.audit.watchdog_seconds = 0.01;
  Engine engine(fx.c, o);
  EXPECT_EQ(run_expecting<TimeoutError>(engine),
            ErrorCode::kWatchdogWallClock);
}

TEST(FaultDetection, CleanRunAuditsAndStaysSilent) {
  auto fx = make_set(0.02, -0.02);
  Engine engine(fx.c, faulty_opts(nullptr, /*audit_interval=*/16));
  engine.run_events(2000);
  const IntegrityReport& rep = engine.integrity_report();
  EXPECT_TRUE(rep.ok());
  EXPECT_GE(rep.audits_run, 2000u / 16u);
  EXPECT_GT(rep.last_audit_event, 0u);
}

TEST(FaultDetection, DisabledAuditRunsNoChecks) {
  auto fx = make_set(0.02, -0.02);
  EngineOptions o = faulty_opts(nullptr);
  o.audit.enabled = false;
  Engine engine(fx.c, o);
  engine.run_events(2000);
  EXPECT_EQ(engine.integrity_report().audits_run, 0u);
}

TEST(NumericGuard, SingularCapacitanceMatrixThrowsCoded) {
  // Two islands coupled only to each other: every node passes the dangling
  // check, but C_II is exactly singular — the factorization must refuse it
  // with a coded NumericError naming the electrostatic model, not crash in
  // the solver or return garbage potentials.
  Circuit c;
  const NodeId a = c.add_island("a");
  const NodeId b = c.add_island("b");
  c.add_junction(a, b, 1e6, 1e-18);
  EngineOptions o;
  o.temperature = 5.0;
  try {
    Engine engine(c, o);
    FAIL() << "singular C_II was accepted";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotPositiveDefinite);
    EXPECT_NE(std::string(e.what()).find("electrostatic model"),
              std::string::npos);
  }
}

// ---- checkpoint salvage ---------------------------------------------------

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(f)) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(CheckpointSalvage, TruncatedMidWriteKeepsTheValidPrefix) {
  TempFile tmp("/tmp/semsim_guard_salvage.bin");
  {
    RunCheckpoint cp(tmp.path, /*fingerprint=*/9, /*unit_count=*/4);
    cp.record(0, {1, 2, 3});
    cp.record(1, {4, 5});
    cp.record(2, {6, 7, 8, 9});
  }
  // Chop into the middle of the last frame, as a crash mid-append would.
  std::vector<std::uint8_t> b = read_bytes(tmp.path);
  b.resize(b.size() - 5);
  write_bytes(tmp.path, b);

  // A torn append is the one damage a crash leaves, so it is no error in
  // either mode: the whole frames before it load, the tail is dropped and
  // its unit recomputed. Salvage counts only frames dropped for damage.
  for (const bool salvage : {false, true}) {
    SCOPED_TRACE(salvage ? "salvage" : "default");
    RunCheckpoint cp(tmp.path, 9, 4, /*require_existing=*/false, salvage);
    EXPECT_TRUE(cp.has(0));
    EXPECT_TRUE(cp.has(1));
    EXPECT_FALSE(cp.has(2));
    EXPECT_EQ(cp.completed(), 2u);
    EXPECT_EQ(cp.salvaged_dropped(), 0u);
    EXPECT_EQ(cp.payload(0), (std::vector<std::uint8_t>{1, 2, 3}));
  }
  EXPECT_EQ(read_bytes(tmp.path), b);  // opening cut nothing
}

TEST(CheckpointSalvage, HeaderDamageIsFatalEvenWithSalvage) {
  // Salvage never guesses at the run identity: a damaged header could make
  // another run's records look valid.
  TempFile tmp("/tmp/semsim_guard_salvage_hdr.bin");
  {
    RunCheckpoint cp(tmp.path, 9, 2);
    cp.record(0, {1});
  }
  std::vector<std::uint8_t> b = read_bytes(tmp.path);
  b[0] ^= 0xFF;  // magic
  write_bytes(tmp.path, b);
  EXPECT_THROW(RunCheckpoint(tmp.path, 9, 2, false, /*salvage=*/true), IoError);
}

/// A file holding the three frames (0: {10, 20, 30}), (1: {40}), (2: {50})
/// for fingerprint 9 and three units. Frames start after the 32-byte
/// header, each as [u64 body_len | u64 unit | payload | u64 checksum].
std::vector<std::uint8_t> three_frames(const std::string& path) {
  {
    RunCheckpoint cp(path, 9, 3);
    cp.record(0, {10, 20, 30});
    cp.record(1, {40});
    cp.record(2, {50});
  }
  return read_bytes(path);
}

TEST(CheckpointSalvage, ChecksumFailureDropsFromTheBadRecordOn) {
  TempFile tmp("/tmp/semsim_guard_salvage_sum.bin");
  std::vector<std::uint8_t> b = three_frames(tmp.path);
  b[32 + 16] ^= 0x01;  // first payload byte of frame 0
  write_bytes(tmp.path, b);
  try {
    RunCheckpoint cp(tmp.path, 9, 3);
    FAIL() << "a frame with a bad checksum was accepted without salvage";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointCorrupt);
  }
  RunCheckpoint cp(tmp.path, 9, 3, false, /*salvage=*/true);
  EXPECT_EQ(cp.completed(), 0u);
  EXPECT_EQ(cp.salvaged_dropped(), 3u);
}

TEST(CheckpointSalvage, SalvageAppendsAfterTheKeptPrefix) {
  // A checksum failure in the middle frame: salvage keeps frame 0, drops
  // frames 1 and 2, changes nothing on open, and its first record() cuts
  // the dropped frames off and appends where they began.
  TempFile tmp("/tmp/semsim_guard_salvage_mid.bin");
  const std::vector<std::uint8_t> clean = three_frames(tmp.path);
  const std::size_t frame1 = 32 + 8 + 8 + 3 + 8;
  std::vector<std::uint8_t> b = clean;
  b[frame1 + 16] ^= 0x01;  // frame 1's payload byte
  write_bytes(tmp.path, b);
  {
    RunCheckpoint cp(tmp.path, 9, 3, false, /*salvage=*/true);
    EXPECT_EQ(cp.completed(), 1u);
    EXPECT_TRUE(cp.has(0));
    EXPECT_EQ(cp.salvaged_dropped(), 2u);
    EXPECT_EQ(read_bytes(tmp.path), b);
    cp.record(2, {50});
    cp.record(1, {40});
  }
  std::vector<std::uint8_t> want(clean.begin(), clean.begin() + frame1);
  const std::size_t frame2 = frame1 + 8 + 8 + 1 + 8;
  want.insert(want.end(), clean.begin() + frame2, clean.end());  // unit 2
  want.insert(want.end(), clean.begin() + frame1, clean.begin() + frame2);
  EXPECT_EQ(read_bytes(tmp.path), want);
  RunCheckpoint back(tmp.path, 9, 3);
  EXPECT_EQ(back.completed(), 3u);
  EXPECT_EQ(back.payload(1), (std::vector<std::uint8_t>{40}));
}

// ---- fault-isolated sweeps ------------------------------------------------

IvSweepConfig small_sweep(const SetTransistor& fx) {
  IvSweepConfig cfg;
  cfg.swept = fx.src;
  cfg.mirror = fx.drn;
  cfg.from = 0.002;
  cfg.to = 0.012;
  cfg.step = 0.002;
  cfg.probes = {{0, 1.0}, {1, 1.0}};
  cfg.measure = CurrentMeasureConfig{200, 1200, 4};
  return cfg;
}

/// A fault that fires on attempts [first, last] of `unit`, so a cell can be
/// made to fail attempt 0 only (retry succeeds) or every permitted attempt
/// (the point degrades to failed:<code>).
void poison_unit(FaultPlan& plan, std::uint64_t unit, std::uint32_t first,
                 std::uint32_t last, std::uint64_t at_event = 300) {
  for (std::uint32_t a = first; a <= last; ++a) {
    FaultSpec f = fault(FaultKind::kNanRate, at_event);
    f.unit = unit;
    f.attempt = a;
    plan.faults.push_back(f);
  }
}

std::vector<IvPoint> sweep_with_plan(const FaultPlan* plan, unsigned threads,
                                     bool strict = false,
                                     IntegrityReport* integrity = nullptr) {
  auto fx = make_set(0.02, -0.02);
  IvSweepConfig cfg = small_sweep(fx);
  cfg.retry.strict = strict;
  EngineOptions o;
  o.temperature = 5.0;
  o.fault = FaultInjector(plan, 0, 0);
  ParallelSweepConfig par;
  par.base_seed = 21;
  const ParallelExecutor exec(threads);
  return run_iv_sweep(fx.c, o, cfg, exec, par, nullptr, {}, integrity);
}

void expect_bitwise_equal(const std::vector<IvPoint>& a,
                          const std::vector<IvPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bias, b[i].bias) << "point " << i;
    // NaN-safe bitwise comparison for the failed rows.
    EXPECT_EQ(std::memcmp(&a[i].current, &b[i].current, sizeof(double)), 0)
        << "point " << i;
    EXPECT_EQ(std::memcmp(&a[i].stderr_mean, &b[i].stderr_mean,
                          sizeof(double)),
              0)
        << "point " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "point " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "point " << i;
    EXPECT_EQ(a[i].error, b[i].error) << "point " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "point " << i;
  }
}

TEST(SweepFaultIsolation, RetryThenSucceedIsDeterministic) {
  FaultPlan plan;
  poison_unit(plan, /*unit=*/1, /*first=*/0, /*last=*/0);  // attempt 0 only
  const std::vector<IvPoint> t1 = sweep_with_plan(&plan, 1);
  const std::vector<IvPoint> t8 = sweep_with_plan(&plan, 8);
  ASSERT_EQ(t1.size(), 6u);

  EXPECT_EQ(t1[1].status, PointStatus::kRetried);
  EXPECT_EQ(t1[1].error, ErrorCode::kNonFiniteRate);
  EXPECT_EQ(t1[1].attempts, 2u);
  EXPECT_TRUE(std::isfinite(t1[1].current));
  EXPECT_EQ(point_status_label(t1[1]), "retried");
  for (std::size_t i = 0; i < t1.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(t1[i].status, PointStatus::kOk) << "point " << i;
    EXPECT_EQ(t1[i].attempts, 1u) << "point " << i;
    EXPECT_EQ(point_status_label(t1[i]), "ok");
  }
  // The fault-retry-succeed sequence replays bitwise at any thread count.
  expect_bitwise_equal(t1, t8);
}

TEST(SweepFaultIsolation, PoisonedPointDegradesTheRestSurvives) {
  FaultPlan plan;
  poison_unit(plan, /*unit=*/2, /*first=*/0, /*last=*/2);  // every attempt
  IntegrityReport integrity;
  const std::vector<IvPoint> bad = sweep_with_plan(&plan, 4, false, &integrity);
  const std::vector<IvPoint> clean = sweep_with_plan(nullptr, 4);
  ASSERT_EQ(bad.size(), 6u);

  // Exactly one failed row, carrying NaN and the coded label.
  EXPECT_EQ(bad[2].status, PointStatus::kFailed);
  EXPECT_EQ(bad[2].error, ErrorCode::kNonFiniteRate);
  EXPECT_EQ(bad[2].attempts, 3u);
  EXPECT_TRUE(std::isnan(bad[2].current));
  EXPECT_TRUE(std::isnan(bad[2].stderr_mean));
  EXPECT_EQ(point_status_label(bad[2]), "failed:invariant.non_finite_rate");

  // Fault isolation means ISOLATION: every other point is bitwise identical
  // to the run with no fault plan at all.
  std::size_t failed = 0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    if (bad[i].status == PointStatus::kFailed) {
      ++failed;
      continue;
    }
    EXPECT_EQ(bad[i].status, PointStatus::kOk);
    EXPECT_EQ(bad[i].current, clean[i].current) << "point " << i;
    EXPECT_EQ(bad[i].stderr_mean, clean[i].stderr_mean) << "point " << i;
  }
  EXPECT_EQ(failed, 1u);
}

TEST(SweepFaultIsolation, StrictModeAbortsWithThePointInContext) {
  FaultPlan plan;
  poison_unit(plan, /*unit=*/2, /*first=*/0, /*last=*/2);
  try {
    sweep_with_plan(&plan, 4, /*strict=*/true);
    FAIL() << "strict sweep swallowed the fault";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFiniteRate);
    EXPECT_NE(std::string(e.what()).find("bias point 2"), std::string::npos)
        << e.what();
  }
}

TEST(SweepFaultIsolation, SerialSweepRetriesOnItsOwnEngine) {
  // One chunk holding all six points (the serial, warm-started sweep): the
  // fault fails point 0, the chunk moves to a fresh engine on its own retry
  // stream, and that engine carries every later point.
  auto fx = make_set(0.02, -0.02);
  FaultPlan plan;
  // Any unit (the single chunk is unit 0), attempt 0 only.
  FaultSpec f = fault(FaultKind::kNanRate, 300);
  f.attempt = 0;
  plan.faults.push_back(f);
  EngineOptions o;
  o.temperature = 5.0;
  o.fault = FaultInjector(&plan, 0, 0);
  const std::vector<IvPoint> pts =
      run_iv_sweep(fx.c, o, small_sweep(fx), ParallelExecutor(1),
                   ParallelSweepConfig{11, 6});
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_EQ(pts[0].status, PointStatus::kRetried);
  EXPECT_EQ(pts[0].attempts, 2u);
  EXPECT_TRUE(std::isfinite(pts[0].current));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].status, PointStatus::kOk) << "point " << i;
  }
}

// ---- fault-isolated stability maps ---------------------------------------

TEST(MapFaultIsolation, PoisonedCellDegradesAndMapsStayIdentical) {
  auto fx = make_set(0.02, -0.02);
  StabilityMapConfig cfg;
  cfg.bias_node = fx.src;
  cfg.mirror = fx.drn;
  cfg.gate_node = fx.gate;
  cfg.bias_values = {0.005, 0.01, 0.015};
  cfg.gate_values = {0.0, 0.02, 0.04};
  cfg.probes = {{0, 1.0}, {1, 1.0}};
  cfg.measure = CurrentMeasureConfig{200, 1200, 4};

  FaultPlan plan;
  poison_unit(plan, /*unit=*/1, /*first=*/0, /*last=*/2);  // gate row 1
  EngineOptions o;
  o.temperature = 5.0;
  o.fault = FaultInjector(&plan, 0, 0);
  ParallelSweepConfig par;
  par.base_seed = 13;

  std::vector<std::vector<std::vector<double>>> maps;
  std::vector<StabilityMapReport> reports(2);
  std::size_t k = 0;
  for (const unsigned threads : {1u, 4u}) {
    const ParallelExecutor exec(threads);
    maps.push_back(run_stability_map(fx.c, o, cfg, exec, par, nullptr,
                                     &reports[k++]));
  }

  // The poisoned cell is row 1's first cell (the fault fires at event 300,
  // inside the first cell's measurement on every permitted attempt).
  ASSERT_EQ(reports[0].degraded.size(), 1u);
  EXPECT_EQ(reports[0].degraded[0].gate, 1u);
  EXPECT_EQ(reports[0].degraded[0].bias, 0u);
  EXPECT_EQ(reports[0].degraded[0].status, PointStatus::kFailed);
  EXPECT_EQ(reports[0].degraded[0].error, ErrorCode::kNonFiniteRate);
  EXPECT_TRUE(std::isnan(maps[0][1][0]));

  // Thread-count independence holds for the degraded map too.
  for (std::size_t g = 0; g < maps[0].size(); ++g) {
    for (std::size_t b = 0; b < maps[0][g].size(); ++b) {
      EXPECT_EQ(std::memcmp(&maps[0][g][b], &maps[1][g][b], sizeof(double)),
                0)
          << "g=" << g << " b=" << b;
    }
  }
  ASSERT_EQ(reports[1].degraded.size(), 1u);
  EXPECT_EQ(reports[1].degraded[0].error, reports[0].degraded[0].error);

  // And the clean rows match a run with no fault plan armed.
  EngineOptions clean_o;
  clean_o.temperature = 5.0;
  const ParallelExecutor exec(2);
  const auto clean = run_stability_map(fx.c, clean_o, cfg, exec, par);
  for (std::size_t g = 0; g < clean.size(); ++g) {
    if (g == 1) continue;
    for (std::size_t b = 0; b < clean[g].size(); ++b) {
      EXPECT_EQ(maps[0][g][b], clean[g][b]) << "g=" << g << " b=" << b;
    }
  }
}

// ---- fault-isolated repeats (driver + JSON surface) ----------------------

constexpr char kRepeatsInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
record 1 2
jumps 1500 6
)";

TEST(RepeatFaultIsolation, FailedRepeatIsExcludedNotFatal) {
  const SimulationInput input = parse_simulation_input(kRepeatsInput);
  FaultPlan plan;
  poison_unit(plan, /*unit=*/2, /*first=*/0, /*last=*/2, /*at_event=*/500);
  DriverOptions opt;
  opt.seed = 5;
  opt.threads = 2;
  opt.fault_plan = &plan;
  const DriverResult r = run_simulation(input, opt);

  ASSERT_TRUE(r.degraded());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].unit, 2u);
  EXPECT_EQ(r.failures[0].code, ErrorCode::kNonFiniteRate);
  EXPECT_EQ(r.failures[0].attempts, 3u);
  ASSERT_TRUE(r.current.has_value());
  EXPECT_TRUE(std::isfinite(r.current->mean));
}

TEST(RepeatFaultIsolation, RetriedRepeatKeepsTheFullEstimate) {
  const SimulationInput input = parse_simulation_input(kRepeatsInput);
  FaultPlan plan;
  poison_unit(plan, /*unit=*/2, /*first=*/0, /*last=*/0, /*at_event=*/500);
  DriverOptions opt;
  opt.seed = 5;
  opt.threads = 2;
  opt.fault_plan = &plan;
  const DriverResult r = run_simulation(input, opt);
  EXPECT_FALSE(r.degraded());
  ASSERT_TRUE(r.current.has_value());
  EXPECT_TRUE(std::isfinite(r.current->mean));
}

TEST(RepeatFaultIsolation, StrictModeRethrowsWithTheRepeatInContext) {
  const SimulationInput input = parse_simulation_input(kRepeatsInput);
  FaultPlan plan;
  poison_unit(plan, /*unit=*/2, /*first=*/0, /*last=*/2, /*at_event=*/500);
  DriverOptions opt;
  opt.seed = 5;
  opt.threads = 2;
  opt.fault_plan = &plan;
  opt.retry.strict = true;
  try {
    run_simulation(input, opt);
    FAIL() << "strict run swallowed the fault";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFiniteRate);
    EXPECT_NE(std::string(e.what()).find("repeat 2"), std::string::npos)
        << e.what();
  }
}

TEST(RunResultJson, CarriesStatusIntegrityAndFailures) {
  RunRequest req;
  req.input = parse_simulation_input(kRepeatsInput);
  req.seed = 5;
  req.threads = 2;
  FaultPlan plan;
  poison_unit(plan, /*unit=*/2, /*first=*/0, /*last=*/2, /*at_event=*/500);
  req.fault_plan = &plan;
  const RunResult res = run(req);
  const JsonValue doc = JsonValue::parse(res.to_json());

  EXPECT_EQ(doc.at("schema").as_string(), "semsim.run_result/v3");
  EXPECT_TRUE(doc.at("degraded").as_bool());
  const JsonValue& failures = doc.at("failures");
  ASSERT_EQ(failures.items().size(), 1u);
  EXPECT_EQ(failures.items()[0].at("code").as_string(),
            "invariant.non_finite_rate");
  EXPECT_EQ(failures.items()[0].at("unit").as_number(), 2.0);
  const JsonValue& integrity = doc.at("integrity");
  EXPECT_GE(integrity.at("audits_run").as_number(), 0.0);
  EXPECT_TRUE(integrity.at("issues").is_array());

  // A clean run of the same input is explicitly not degraded.
  req.fault_plan = nullptr;
  const JsonValue clean = JsonValue::parse(run(req).to_json());
  EXPECT_FALSE(clean.at("degraded").as_bool());
  EXPECT_TRUE(clean.at("failures").items().empty());
}

}  // namespace
}  // namespace semsim
