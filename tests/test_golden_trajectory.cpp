// Golden bitwise-trajectory tests: fixed-seed event sequences and sweep
// tables hashed bit-for-bit and pinned to constants generated on the
// pre-SoA-refactor engine (PR 3). Any change to the hot path — potential
// cache updates, rate evaluation order, Fenwick accumulation, sampling —
// that alters a single bit of a single waiting time or channel choice
// flips these hashes.
//
// The hashes cover: SET and SSET circuits, adaptive and non-adaptive
// solvers, cotunneling, waveform (breakpoint) sources, a multi-island
// chain, and parallel sweep tables at 1 and 8 threads (which must also be
// identical to each other, per the determinism contract). GoldenModel pins
// the electrostatic model itself (kappa, S and the kappa row extents) of
// two logic-scale circuits whose C_II has a non-trivial row profile, plus
// an adaptive trajectory on each. RateMemo pins trajectories of engines
// that keep and that release the exact rate memo, hashed before the memo
// existed.
//
// If a hash mismatch is INTENDED (a deliberate trajectory-affecting
// change), regenerate the constants by running this binary and copying the
// "actual" values from the failure output — and say so in the PR.
#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/sweep.h"
#include "base/constants.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "logic/benchmarks.h"
#include "logic/devices.h"
#include "logic/elaborate.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "obs/checkpoint.h"

namespace semsim {
namespace {

// ---- hashing --------------------------------------------------------------

/// Runs up to `n` events and folds every field of every executed event —
/// including the IEEE-754 bit patterns of dt/time/charge — into one hash.
std::uint64_t trajectory_hash(Engine& engine, int n) {
  BinaryWriter w;
  Event ev;
  for (int i = 0; i < n; ++i) {
    if (!engine.step(&ev)) break;
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.u64(ev.index);
    w.i64(ev.from);
    w.i64(ev.to);
    w.f64(ev.charge);
    w.f64(ev.dt);
    w.f64(ev.time);
  }
  w.f64(engine.time());
  w.u64(engine.event_count());
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

std::uint64_t sweep_hash(const std::vector<IvPoint>& points) {
  BinaryWriter w;
  for (const IvPoint& p : points) {
    w.f64(p.bias);
    w.f64(p.current);
    w.f64(p.stderr_mean);
    w.f64(p.rel_error);
    w.f64(p.tau_int);
    w.u64(p.events);
  }
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

EngineOptions engine_opts(double temperature, bool adaptive,
                          std::uint64_t seed) {
  EngineOptions o;
  o.temperature = temperature;
  o.adaptive.enabled = adaptive;
  o.seed = seed;
  return o;
}

void expect_golden(std::uint64_t actual, std::uint64_t expected,
                   const char* what) {
  EXPECT_EQ(actual, expected) << what << ": trajectory changed; actual hash 0x"
                              << std::hex << actual;
}

// ---- pinned trajectory hashes ---------------------------------------------

TEST(GoldenTrajectory, SetAdaptive) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, engine_opts(1.0, true, 12345));
  expect_golden(trajectory_hash(e, 4000), 0x3dff4b333f4fd0abULL, "SET adaptive");
}

TEST(GoldenTrajectory, SetNonAdaptive) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, engine_opts(1.0, false, 12345));
  expect_golden(trajectory_hash(e, 4000), 0x613495ea4188af1bULL, "SET non-adaptive");
}

TEST(GoldenTrajectory, SetColdAdaptive) {
  // T = 0: the orthodox-rate branch cut and deep-blockade zero rates.
  auto f = make_set(0.05, -0.05, 0.004);
  Engine e(f.c, engine_opts(0.0, true, 777));
  expect_golden(trajectory_hash(e, 4000), 0xd6058553262399e6ULL, "SET cold adaptive");
}

TEST(GoldenTrajectory, SsetAdaptiveRequested) {
  // Superconducting circuits route through the non-adaptive path even when
  // adaptive is requested; QP + Cooper-pair channels.
  auto f = make_set(0.002, -0.002, 0.0, {.superconducting = kFig1cMaterial});
  Engine e(f.c, engine_opts(0.3, true, 999));
  expect_golden(trajectory_hash(e, 2000), 0x3bf10ff57b1bc5acULL, "SSET adaptive-requested");
}

TEST(GoldenTrajectory, SsetNonAdaptive) {
  auto f = make_set(0.002, -0.002, 0.0, {.superconducting = kFig1cMaterial});
  Engine e(f.c, engine_opts(0.3, false, 999));
  expect_golden(trajectory_hash(e, 2000), 0x3bf10ff57b1bc5acULL, "SSET non-adaptive");
}

TEST(GoldenTrajectory, SsetFig1cOperatingPoint) {
  // The paper's Fig. 1c SSET at 50 mK and +-20 mV on the engine's default
  // quasi-particle table range: a table an order of magnitude wider in kT
  // than the 0.3 K goldens above, most of whose unfavourable tail lies
  // where the detailed-balance factor underflows.
  auto f = make_set(0.02, -0.02, 0.0, {.superconducting = kFig1cMaterial});
  Engine e(f.c, engine_opts(0.05, true, 999));
  expect_golden(trajectory_hash(e, 2000), 0xcac4921e498dce20ULL, "SSET 50 mK");
}

TEST(GoldenTrajectory, CotunnelingAdaptive) {
  // Sub-threshold bias: cotunneling channels carry the current; the SE
  // channels stay adaptive, cotunneling recomputes non-adaptively.
  auto f = make_set(0.004, -0.004, 0.0);
  EngineOptions o = engine_opts(0.0, true, 2024);
  o.cotunneling = true;
  Engine e(f.c, o);
  expect_golden(trajectory_hash(e, 1000), 0xa5b70a4579f357aaULL, "cotunneling adaptive");
}

TEST(GoldenTrajectory, PulsedGateAdaptive) {
  // Waveform breakpoints: source-delta batches through the adaptive path.
  auto f = make_set(0.02, -0.02, 0.0);
  f.c.set_source(f.gate, Waveform::pulse(0.0, 0.03, 1e-9, 2e-9, 8e-9));
  Engine e(f.c, engine_opts(1.0, true, 4711));
  expect_golden(trajectory_hash(e, 4000), 0xc89d877b785aa698ULL, "pulsed gate adaptive");
}

TEST(GoldenTrajectory, PulsedGateNonAdaptive) {
  auto f = make_set(0.02, -0.02, 0.0);
  f.c.set_source(f.gate, Waveform::pulse(0.0, 0.03, 1e-9, 2e-9, 8e-9));
  Engine e(f.c, engine_opts(1.0, false, 4711));
  expect_golden(trajectory_hash(e, 4000), 0xc51adc6c5f0d17d0ULL, "pulsed gate non-adaptive");
}

TEST(GoldenTrajectory, ChainAdaptive) {
  const Circuit c = make_set_chain(8);
  Engine e(c, engine_opts(0.0, true, 31337));
  expect_golden(trajectory_hash(e, 4000), 0x2f1d6ec72e13f9dcULL, "chain-8 adaptive");
}

TEST(GoldenTrajectory, ChainNonAdaptive) {
  const Circuit c = make_set_chain(8);
  Engine e(c, engine_opts(0.0, false, 31337));
  expect_golden(trajectory_hash(e, 4000), 0xc1480e041d8ea9bfULL, "chain-8 non-adaptive");
}

// ---- the exact rate memo ---------------------------------------------------
// A memo hit returns the thermal kernel's own bits (physics/rates.h), so
// whether an engine keeps its memo cannot move a trajectory: these hashes
// were generated on the engine before the memo existed.

TEST(RateMemo, KeptOnTheFig1bSet) {
  // The Fig. 1b SET at 5 K, gate 10 mV, +-20 mV: the island holds a few
  // charge states, so nearly every thermal rate evaluation repeats one of
  // its channel's last four free-energy changes.
  for (const bool adaptive : {true, false}) {
    auto f = make_set(0.02, -0.02, 0.01);
    Engine e(f.c, engine_opts(5.0, adaptive, 1998));
    expect_golden(trajectory_hash(e, 20000),
                  adaptive ? 0xf814600e66e1caf6ULL : 0x49882dfce3642e86ULL,
                  adaptive ? "Fig. 1b SET adaptive" : "Fig. 1b SET non-adaptive");
    EXPECT_EQ(e.rate_memo_state(), Engine::RateMemoState::kKept);
  }
}

TEST(RateMemo, ReleasedOnTheEnsembleChainUnderTheAdaptiveSolver) {
  // ensemble_chain's 256-stage chain (0.5 aF neighbour coupling) at
  // 4.2 K. The adaptive solver recomputes only flagged junctions, whose
  // free-energy changes have just moved: most probes miss and the memo is
  // released after the first 4096. The non-adaptive solver recomputes
  // every channel each event, most of them unchanged, and keeps it.
  const Circuit c = make_set_chain(256, 0.5e-18);
  Engine a(c, engine_opts(4.2, true, 2048));
  expect_golden(trajectory_hash(a, 4000), 0xa4b6f44f963ed0e5ULL,
                "256-stage chain adaptive");
  EXPECT_EQ(a.rate_memo_state(), Engine::RateMemoState::kReleased);
  Engine n(c, engine_opts(4.2, false, 2048));
  expect_golden(trajectory_hash(n, 4000), 0x509ec55ea215680bULL,
                "256-stage chain non-adaptive");
  EXPECT_EQ(n.rate_memo_state(), Engine::RateMemoState::kKept);
}

TEST(RateMemo, KeptOnA1024StageChainUnderTheNonAdaptiveSolver) {
  // 2050 channels. The constructor's refresh probes them on empty lines
  // and is not counted; counted, its misses alone would pass the 4096
  // probes with the first event and release the memo. The decision falls
  // on the first two events instead, most of whose probes repeat.
  const Circuit c = make_set_chain(1024, 0.5e-18);
  Engine n(c, engine_opts(4.2, false, 2048));
  expect_golden(trajectory_hash(n, 200), 0x70029b6583ebc9bdULL,
                "1024-stage chain non-adaptive");
  EXPECT_EQ(n.rate_memo_state(), Engine::RateMemoState::kKept);
}

TEST(RateMemo, OffWhereNoChannelIsMemoized) {
  // T = 0 and quasi-particle channels are never memoized.
  auto f = make_set(0.02, -0.02, 0.0);
  EXPECT_EQ(Engine(f.c, engine_opts(0.0, true, 1)).rate_memo_state(),
            Engine::RateMemoState::kOff);
  f.c.set_superconducting(kFig1cMaterial);
  EXPECT_EQ(Engine(f.c, engine_opts(0.05, true, 1)).rate_memo_state(),
            Engine::RateMemoState::kOff);
}

// ---- pinned sweep tables (1 and 8 threads) --------------------------------

IvSweepConfig small_sweep(const SetTransistor& f) {
  IvSweepConfig cfg;
  cfg.swept = f.src;
  cfg.mirror = f.drn;
  cfg.from = -0.03;
  cfg.to = 0.03;
  cfg.step = 0.005;
  cfg.probes = {{0, 1.0}, {1, -1.0}};
  cfg.measure.warmup_events = 200;
  cfg.measure.measure_events = 1500;
  return cfg;
}

void expect_sweep_golden(const Circuit& circuit, const EngineOptions& eo,
                         const IvSweepConfig& cfg, std::uint64_t expected,
                         const char* what, std::size_t points_per_unit = 2) {
  const ParallelSweepConfig par{/*base_seed=*/42, points_per_unit};
  const std::vector<IvPoint> t1 =
      run_iv_sweep(circuit, eo, cfg, ParallelExecutor(1), par);
  const std::vector<IvPoint> t8 =
      run_iv_sweep(circuit, eo, cfg, ParallelExecutor(8), par);
  const std::uint64_t h1 = sweep_hash(t1);
  const std::uint64_t h8 = sweep_hash(t8);
  EXPECT_EQ(h1, h8) << what << ": sweep table depends on thread count";
  expect_golden(h1, expected, what);
}

TEST(GoldenSweep, SetAdaptive) {
  auto f = make_set(0.0, 0.0, 0.0);
  expect_sweep_golden(f.c, engine_opts(1.0, true, 42), small_sweep(f), 0xf73fbca040a71e9dULL,
                      "SET sweep adaptive");
}

TEST(GoldenSweep, SetNonAdaptive) {
  auto f = make_set(0.0, 0.0, 0.0);
  expect_sweep_golden(f.c, engine_opts(1.0, false, 42), small_sweep(f), 0xc6d1277da8a46020ULL,
                      "SET sweep non-adaptive");
}

TEST(GoldenSweep, SsetAdaptiveRequested) {
  auto f = make_set(0.0, 0.0, 0.0, {.superconducting = kFig1cMaterial});
  IvSweepConfig cfg = small_sweep(f);
  cfg.measure.warmup_events = 100;
  cfg.measure.measure_events = 600;
  expect_sweep_golden(f.c, engine_opts(0.3, true, 42), cfg, 0x98157f90f0e3884aULL,
                      "SSET sweep");
}

TEST(GoldenSweep, SsetFig1cTwoPoints) {
  // 50 mK, +-50 mV, one point per work unit: two unit engines on the
  // sweep's default quasi-particle table range.
  auto f = make_set(0.0, 0.0, 0.0, {.superconducting = kFig1cMaterial});
  IvSweepConfig cfg = small_sweep(f);
  cfg.from = -0.05;
  cfg.to = 0.05;
  cfg.step = 0.1;
  cfg.measure.warmup_events = 100;
  cfg.measure.measure_events = 600;
  expect_sweep_golden(f.c, engine_opts(0.05, true, 42), cfg, 0x3b574842e1b1cc84ULL,
                      "SSET 50 mK sweep", /*points_per_unit=*/1);
}

// ---- pinned electrostatic models of logic-scale circuits -------------------
// The full adder and the 2 x 128 fabric were generated on the dense O(n^3)
// model build, the 4 x 384 fabric on the profile-bounded one that preceded
// the sparse factor: the kernels of linalg/cholesky.cpp must reproduce
// their bits.

/// Every bit of kappa and S, and the kappa row extents.
std::uint64_t model_hash(const ElectrostaticModel& m) {
  BinaryWriter w;
  const std::size_t ni = m.island_count();
  const std::size_t ne = m.external_count();
  w.u64(ni);
  w.u64(ne);
  for (std::size_t r = 0; r < ni; ++r) {
    for (std::size_t c = 0; c < ni; ++c) w.f64(m.kappa()(r, c));
    for (std::size_t c = 0; c < ne; ++c) w.f64(m.source_gain()(r, c));
    w.u64(m.row_begin(r));
    w.u64(m.row_end(r));
  }
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

/// The elaborated full-adder benchmark: a pulse on the toggled input, the
/// other inputs at their base values.
Circuit full_adder_circuit() {
  const LogicBenchmark b = make_benchmark("full-adder");
  const SetLogicParams params{};
  ElaboratedCircuit elab = elaborate(b.netlist, params);
  const auto& ins = b.netlist.inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    elab.circuit().set_source(
        elab.node(ins[i]),
        i == b.toggle_input
            ? Waveform::pulse(0.0, params.vdd, 2e-9, 10e-9, 20e-9)
            : Waveform::dc(b.base_vector[i] ? params.vdd : 0.0));
  }
  return elab.circuit();
}

TEST(GoldenModel, FullAdder) {
  const Circuit c = full_adder_circuit();
  expect_golden(model_hash(ElectrostaticModel(c)), 0x186e1961b0329a82ULL,
                "full-adder model");
  Engine e(c, engine_opts(SetLogicParams{}.temperature, true, 1701));
  expect_golden(trajectory_hash(e, 4000), 0x240e857def026da9ULL,
                "full-adder adaptive");
}

TEST(GoldenModel, RandomFabric) {
  const Circuit c = make_logic_fabric(2, 128, 2008);
  expect_golden(model_hash(ElectrostaticModel(c)), 0xb5f9449c5dabb7f9ULL,
                "2 x 128 fabric model");
  Engine e(c, engine_opts(SetLogicParams{}.temperature, true, 1702));
  expect_golden(trajectory_hash(e, 4000), 0x40e3fe0e613c41a9ULL,
                "2 x 128 fabric adaptive");
}

// The benchmark's scale: 1152 islands, where whole runs of a column's
// envelope are zero.
TEST(GoldenModel, BenchmarkScaleFabric) {
  const Circuit c = make_logic_fabric(4, 384, 2008);
  expect_golden(model_hash(ElectrostaticModel(c)), 0x48f31789f8f8b835ULL,
                "4 x 384 fabric model");
}

}  // namespace
}  // namespace semsim
