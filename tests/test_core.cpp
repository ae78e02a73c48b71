// Tests for the Monte-Carlo engine: event solver, adaptive vs non-adaptive
// solvers, charge bookkeeping, cotunneling/superconducting channels, and the
// analysis helpers on top.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/current.h"
#include "analysis/sweep.h"
#include "base/constants.h"
#include "core/adaptive_solver.h"
#include "core/engine.h"
#include "netlist/parser.h"
#include "physics/cotunneling.h"
#include "physics/free_energy.h"

namespace semsim {
namespace {

constexpr double kE = kElementaryCharge;

// Paper Fig. 1 SET with junction orientation chained source -> island ->
// drain so conventional source->drain current reads positive on both
// junctions with +1 probes.
struct SetFixture {
  Circuit c;
  NodeId src, drn, gate, island;
  SetFixture(double v_src = 0.0, double v_drn = 0.0, double v_gate = 0.0) {
    src = c.add_external("src");
    drn = c.add_external("drn");
    gate = c.add_external("gate");
    island = c.add_island("island");
    c.add_junction(src, island, 1e6, 1e-18);   // junction 0: src -> island
    c.add_junction(island, drn, 1e6, 1e-18);   // junction 1: island -> drn
    c.add_capacitor(gate, island, 3e-18);
    c.set_source(src, Waveform::dc(v_src));
    c.set_source(drn, Waveform::dc(v_drn));
    c.set_source(gate, Waveform::dc(v_gate));
  }
};

EngineOptions opts(double temperature, bool adaptive,
                   std::uint64_t seed = 1) {
  EngineOptions o;
  o.temperature = temperature;
  o.adaptive.enabled = adaptive;
  o.seed = seed;
  return o;
}

// Analytic SET current at T = 0, Vg = 0, symmetric bias above threshold.
// Three charge states are active (n = -1, 0, +1: the electron and the hole
// cycle run in parallel): entering the island from the low lead at rate
// Gamma_a (from n = 0) and leaving to the high lead at Gamma_b, giving
//   I = 2 e Gamma_a Gamma_b / (Gamma_b + 2 Gamma_a).
double analytic_set_current_t0(double v_half) {
  const double c_sigma = 5e-18;
  const double u = kE * kE / (2.0 * c_sigma);
  const double r = 1e6;
  const double g_a = (kE * v_half - u) / (kE * kE * r);  // 0 -> +-1
  const double v_isl_charged = kE / c_sigma;
  const double g_b =
      (kE * (v_half + v_isl_charged) - u) / (kE * kE * r);  // +-1 -> 0
  if (g_a <= 0.0) return 0.0;
  return 2.0 * kE * g_a * g_b / (g_b + 2.0 * g_a);
}

// ---- engine basics -----------------------------------------------------------

TEST(Engine, DeepBlockadeIsStuckAtZeroTemperature) {
  SetFixture f;  // all sources 0 V
  Engine e(f.c, opts(0.0, true));
  EXPECT_DOUBLE_EQ(e.total_rate(), 0.0);
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.event_count(), 0u);
}

TEST(Engine, BlockadeLiftsAboveThreshold) {
  // Threshold at Vds = e/C_sigma = 32 mV (symmetric bias).
  SetFixture below(0.015, -0.015, 0.0);
  Engine eb(below.c, opts(0.0, true));
  EXPECT_DOUBLE_EQ(eb.total_rate(), 0.0);

  SetFixture above(0.020, -0.020, 0.0);
  Engine ea(above.c, opts(0.0, true));
  EXPECT_GT(ea.total_rate(), 0.0);
  EXPECT_TRUE(ea.step());
}

TEST(Engine, TimeAdvancesMonotonically) {
  SetFixture f(0.02, -0.02, 0.0);
  Engine e(f.c, opts(0.0, true));
  double t_prev = 0.0;
  Event ev;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(e.step(&ev));
    EXPECT_GT(ev.time, t_prev);
    EXPECT_GT(ev.dt, 0.0);
    t_prev = ev.time;
  }
  EXPECT_DOUBLE_EQ(e.time(), t_prev);
}

TEST(Engine, ThreeStateCycleAtZeroTemperature) {
  // At Vg = 0 the electron cycle (0 <-> +1) and the hole cycle (0 <-> -1)
  // are both open; no other state is reachable at this bias.
  SetFixture f(0.02, -0.02, 0.0);
  Engine e(f.c, opts(0.0, true));
  bool saw_plus = false, saw_minus = false;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(e.step());
    const long n = e.electron_count(f.island);
    ASSERT_TRUE(n >= -1 && n <= 1) << "island left the three-state cycle: " << n;
    saw_plus |= (n == 1);
    saw_minus |= (n == -1);
  }
  EXPECT_TRUE(saw_plus);
  EXPECT_TRUE(saw_minus);
}

TEST(Engine, CurrentMatchesAnalyticTwoStateValue) {
  const double v_half = 0.02;
  const double expected = analytic_set_current_t0(v_half);
  ASSERT_GT(expected, 0.0);
  for (const bool adaptive : {false, true}) {
    SetFixture f(v_half, -v_half, 0.0);
    Engine e(f.c, opts(0.0, adaptive, 7));
    const CurrentEstimate est = measure_mean_current(
        e, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{2000, 60000, 8});
    EXPECT_NEAR(est.mean, expected, 0.05 * expected)
        << (adaptive ? "adaptive" : "non-adaptive");
  }
}

TEST(Engine, SeriesJunctionsCarrySameMeanCurrent) {
  SetFixture f(0.02, -0.02, 0.0);
  Engine e(f.c, opts(0.0, true, 3));
  e.run_events(50000);
  const double q0 = e.junction_transferred_e(0);
  const double q1 = e.junction_transferred_e(1);
  ASSERT_NE(q0, 0.0);
  EXPECT_NEAR(q1 / q0, 1.0, 0.02);
}

TEST(Engine, ChargeConservationAgainstEventLog) {
  SetFixture f(0.02, -0.02, 0.0);
  Engine e(f.c, opts(2.0, true, 5));
  long net_in = 0;  // electrons into the island per the event stream
  Event ev;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(e.step(&ev));
    const long n = static_cast<long>(std::lround(-ev.charge / kE));
    if (ev.to == f.island) net_in += n;
    if (ev.from == f.island) net_in -= n;
  }
  EXPECT_EQ(e.electron_count(f.island), net_in);
}

TEST(Engine, ZeroBiasZeroMeanCurrent) {
  SetFixture f(0.0, 0.0, 0.0);
  Engine e(f.c, opts(10.0, true, 11));  // hot enough to have events
  const CurrentEstimate est = measure_mean_current(
      e, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{5000, 80000, 8});
  EXPECT_NEAR(est.mean, 0.0, 4.0 * est.stderr_mean + 1e-12);
}

TEST(Engine, GatePeriodicityOfCurrent) {
  // I(Vg) is periodic with period e/Cg = 53.4 mV (paper Sec. II).
  const double period = kE / 3e-18;
  SetFixture f(0.01, -0.01, 0.0);
  Engine e(f.c, opts(5.0, true, 13));
  const CurrentMeasureConfig mc{3000, 60000, 4};

  e.set_dc_source(f.gate, 0.012);
  const double i1 = measure_mean_current(e, {{0, 1.0}, {1, 1.0}}, mc).mean;
  e.set_dc_source(f.gate, 0.012 + period);
  const double i2 = measure_mean_current(e, {{0, 1.0}, {1, 1.0}}, mc).mean;
  ASSERT_GT(std::abs(i1), 1e-11);
  EXPECT_NEAR(i2 / i1, 1.0, 0.1);
}

TEST(Engine, GateModulatesCurrentInsideBlockade) {
  // At Vds just below threshold, Vg = e/2Cg opens the device.
  SetFixture f(0.012, -0.012, 0.0);
  Engine e(f.c, opts(0.0, true, 17));
  EXPECT_DOUBLE_EQ(e.total_rate(), 0.0);  // blocked at Vg = 0
  e.set_dc_source(f.gate, kE / (2.0 * 3e-18));  // degeneracy point
  EXPECT_GT(e.total_rate(), 0.0);
}

TEST(Engine, RunUntilReachesTarget) {
  SetFixture f(0.02, -0.02, 0.0);
  Engine e(f.c, opts(1.0, true, 19));
  e.run_until(2e-9);
  EXPECT_DOUBLE_EQ(e.time(), 2e-9);
  const std::uint64_t n1 = e.event_count();
  e.run_until(4e-9);
  EXPECT_GT(e.event_count(), n1);
}

TEST(Engine, RunUntilOnBlockedCircuitAdvancesTimeWithoutEvents) {
  // Physical semantics: in deep blockade nothing happens, but time passes.
  SetFixture f;  // zero bias, T = 0
  Engine e(f.c, opts(0.0, true));
  e.run_until(1e-9);
  EXPECT_DOUBLE_EQ(e.time(), 1e-9);
  EXPECT_EQ(e.event_count(), 0u);
}

TEST(Engine, ResetReproducesTrajectory) {
  SetFixture f(0.02, -0.02, 0.0);
  Engine e(f.c, opts(1.0, true, 23));
  std::vector<double> times1;
  Event ev;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(e.step(&ev));
    times1.push_back(ev.time);
  }
  e.reset(23);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(e.step(&ev));
    EXPECT_DOUBLE_EQ(ev.time, times1[static_cast<std::size_t>(i)]);
  }
}

TEST(Engine, DifferentSeedsGiveDifferentTrajectoriesSameCurrent) {
  const double v_half = 0.02;
  double i_a, i_b;
  {
    SetFixture f(v_half, -v_half, 0.0);
    Engine e(f.c, opts(0.0, true, 100));
    i_a = measure_mean_current(e, {{0, 1.0}, {1, 1.0}},
                               CurrentMeasureConfig{2000, 40000, 4})
              .mean;
  }
  {
    SetFixture f(v_half, -v_half, 0.0);
    Engine e(f.c, opts(0.0, true, 200));
    i_b = measure_mean_current(e, {{0, 1.0}, {1, 1.0}},
                               CurrentMeasureConfig{2000, 40000, 4})
              .mean;
  }
  EXPECT_NE(i_a, i_b);
  EXPECT_NEAR(i_a, i_b, 0.05 * std::abs(i_a));
}

// ---- source handling -----------------------------------------------------------

TEST(Engine, StepSourceWakesBlockedCircuit) {
  // At t < 1 ns the device is blocked (V = 0, T = 0); the step to 40 mV
  // opens it. The engine must cross the breakpoint instead of reporting
  // itself stuck.
  SetFixture f;
  f.c.set_source(f.src, Waveform::step(0.0, 0.02, 1e-9));
  f.c.set_source(f.drn, Waveform::step(0.0, -0.02, 1e-9));
  Engine e(f.c, opts(0.0, true));
  Event ev;
  ASSERT_TRUE(e.step(&ev));
  EXPECT_GT(ev.time, 1e-9);
}

TEST(Engine, SetDcSourceChangesRatesImmediately) {
  SetFixture f;
  Engine e(f.c, opts(0.0, true));
  EXPECT_DOUBLE_EQ(e.total_rate(), 0.0);
  e.set_dc_source(f.src, 0.02);
  e.set_dc_source(f.drn, -0.02);
  EXPECT_GT(e.total_rate(), 0.0);
  e.set_dc_source(f.src, 0.0);
  e.set_dc_source(f.drn, 0.0);
  EXPECT_DOUBLE_EQ(e.total_rate(), 0.0);
}

TEST(Engine, NodeVoltageTracksSourcesAndCharge) {
  SetFixture f(0.0, 0.0, 0.01);
  Engine e(f.c, opts(0.0, true));
  // Neutral island: v = 0.6 * Vg.
  EXPECT_NEAR(e.node_voltage(f.island), 0.006, 1e-12);
  EXPECT_DOUBLE_EQ(e.node_voltage(f.gate), 0.01);
  EXPECT_DOUBLE_EQ(e.node_voltage(Circuit::kGroundNode), 0.0);
}

// ---- adaptive solver ------------------------------------------------------------

TEST(Adaptive, MatchesNonAdaptiveCurrentOnSet) {
  // Single-island circuit: the adaptive solver must agree to high accuracy
  // because every junction is adjacent to every event.
  const double v_half = 0.02;
  SetFixture fa(v_half, -v_half, 0.0), fn(v_half, -v_half, 0.0);
  Engine ea(fa.c, opts(0.0, true, 31));
  Engine en(fn.c, opts(0.0, false, 31));
  const CurrentMeasureConfig mc{2000, 50000, 5};
  const double ia = measure_mean_current(ea, {{0, 1.0}, {1, 1.0}}, mc).mean;
  const double in = measure_mean_current(en, {{0, 1.0}, {1, 1.0}}, mc).mean;
  EXPECT_NEAR(ia, in, 0.05 * std::abs(in));
}

// A chain of SET stages separated by large wire capacitances (the paper's
// Fig. 4 scenario: C1 isolates the stages).
struct ChainFixture {
  Circuit c;
  NodeId vp, vn;
  std::vector<NodeId> islands;
  ChainFixture(int stages, double v_bias) {
    vp = c.add_external("vp");
    vn = c.add_external("vn");
    c.set_source(vp, Waveform::dc(v_bias));
    c.set_source(vn, Waveform::dc(-v_bias));
    for (int s = 0; s < stages; ++s) {
      const NodeId i = c.add_island();
      islands.push_back(i);
      c.add_junction(vp, i, 1e6, 1e-18);
      c.add_junction(i, vn, 1e6, 1e-18);
      // Big wire capacitance to ground isolates the stage electrostatically.
      c.add_capacitor(i, Circuit::kGroundNode, 20e-18);
    }
  }
};

TEST(Adaptive, FlagsOnlyLocalJunctionsOnIsolatedStages) {
  ChainFixture f(20, 0.01);
  EngineOptions o = opts(0.0, true, 37);
  o.adaptive.refresh_interval = 100000;  // keep refreshes out of the count
  Engine e(f.c, o);
  e.run_events(5000);
  const SolverStats s = e.stats();
  // 40 junctions total; with isolated stages each event should flag ~2.
  const double flagged_per_event =
      static_cast<double>(s.junctions_flagged) / static_cast<double>(s.events);
  EXPECT_LT(flagged_per_event, 6.0);
  EXPECT_GT(flagged_per_event, 0.5);
}

TEST(Adaptive, DoesFewerRateEvaluationsThanNonAdaptive) {
  ChainFixture fa(20, 0.01), fn(20, 0.01);
  EngineOptions oa = opts(0.0, true, 41);
  oa.adaptive.refresh_interval = 1000;
  Engine ea(fa.c, oa);
  Engine en(fn.c, opts(0.0, false, 41));
  ea.run_events(5000);
  en.run_events(5000);
  EXPECT_LT(ea.stats().rate_evaluations, en.stats().rate_evaluations / 4);
}

TEST(Adaptive, CurrentAgreesWithNonAdaptiveOnChain) {
  ChainFixture fa(10, 0.01), fn(10, 0.01);
  EngineOptions oa = opts(0.0, true, 43);
  oa.adaptive.threshold = 0.05;
  Engine ea(fa.c, oa);
  Engine en(fn.c, opts(0.0, false, 43));
  const CurrentMeasureConfig mc{3000, 60000, 5};
  const double ia = measure_mean_current(ea, {{0, 1.0}}, mc).mean;
  const double in = measure_mean_current(en, {{0, 1.0}}, mc).mean;
  ASSERT_NE(in, 0.0);
  EXPECT_NEAR(ia / in, 1.0, 0.08);
}

TEST(Adaptive, TighterThresholdTracksNonAdaptiveMoreClosely) {
  // Not a strict theorem per-run, but with matched seeds and long averages
  // the relative error should not explode as alpha shrinks.
  ChainFixture fn(8, 0.01);
  Engine en(fn.c, opts(0.0, false, 47));
  const CurrentMeasureConfig mc{3000, 50000, 5};
  const double in = measure_mean_current(en, {{0, 1.0}}, mc).mean;
  for (const double alpha : {0.01, 0.3}) {
    ChainFixture fa(8, 0.01);
    EngineOptions o = opts(0.0, true, 47);
    o.adaptive.threshold = alpha;
    Engine ea(fa.c, o);
    const double ia = measure_mean_current(ea, {{0, 1.0}}, mc).mean;
    EXPECT_NEAR(ia / in, 1.0, alpha < 0.1 ? 0.08 : 0.25) << "alpha " << alpha;
  }
}

// ---- AdaptiveSolver unit tests ----------------------------------------------------

TEST(AdaptiveSolverUnit, TinyThresholdFlagsSeeds) {
  SetFixture f;
  ElectrostaticModel em(f.c);
  AdaptiveSolver s(f.c, em, 1e-12);
  // The solver reads dW' from a bound per-channel store (the engine's
  // delta_w_ array in production).
  std::vector<double> dw = {1e-21, 1e-21, 1e-21, 1e-21};
  s.bind_delta_w(dw.data());
  std::vector<std::size_t> flagged;
  // Island (node 4) potential moved; leads unchanged.
  s.collect({0}, [](NodeId n) { return n == 4 ? 1e-3 : 0.0; }, flagged);
  // Junction 0 flags; its island neighbour junction 1 is tested and flags too
  // (same dv applies).
  EXPECT_EQ(flagged.size(), 2u);
}

TEST(AdaptiveSolverUnit, HugeThresholdAccumulates) {
  SetFixture f;
  ElectrostaticModel em(f.c);
  AdaptiveSolver s(f.c, em, 1e9);
  std::vector<double> dw = {1e-21, 1e-21, 0.0, 0.0};
  s.bind_delta_w(dw.data());
  std::vector<std::size_t> flagged;
  s.collect({0}, [](NodeId n) { return n == 4 ? 1e-4 : 0.0; }, flagged);
  EXPECT_TRUE(flagged.empty());
  EXPECT_NE(s.accumulated(0), 0.0);
  // Accumulation adds up across calls.
  const double b1 = s.accumulated(0);
  s.collect({0}, [](NodeId n) { return n == 4 ? 1e-4 : 0.0; }, flagged);
  EXPECT_NEAR(s.accumulated(0), 2.0 * b1, 1e-18);
  s.reset_accumulators();
  EXPECT_DOUBLE_EQ(s.accumulated(0), 0.0);
}

TEST(AdaptiveSolverUnit, MarkFreshClearsAccumulator) {
  SetFixture f;
  ElectrostaticModel em(f.c);
  AdaptiveSolver s(f.c, em, 1e9);
  // Non-zero thresholds so nothing flags.
  std::vector<double> dw = {1e-21, 1e-21, 0.0, 0.0};
  s.bind_delta_w(dw.data());
  std::vector<std::size_t> flagged;
  s.collect({0}, [](NodeId n) { return n == 4 ? 1e-4 : 0.0; }, flagged);
  ASSERT_NE(s.accumulated(0), 0.0);
  // The engine refreshes the bound store in place, then reports it.
  dw[1] = 2e-21;
  s.mark_fresh(0);
  EXPECT_DOUBLE_EQ(s.accumulated(0), 0.0);
  EXPECT_DOUBLE_EQ(s.stored_dw_bw(0), 2e-21);
}

// ---- cotunneling in the engine ------------------------------------------------------

TEST(EngineCotunneling, BlockadeCurrentMatchesAnalyticRate) {
  // Deep blockade at T = 0: sequential channels are closed, so the MC
  // process is pure Poisson cotunneling whose rate we can compute exactly.
  const double v_half = 0.005;
  SetFixture f(v_half, -v_half, 0.0);
  EngineOptions o = opts(0.0, true, 53);
  o.cotunneling = true;
  Engine e(f.c, o);

  // Analytic rate for the favourable direction (electron drn -> src ...
  // wait: electrons flow from the negative lead; net transfer drn -> src
  // has dw = -e * Vds < 0 -> favourable is src <- drn, conventional current
  // src -> drn > 0).
  const double c_sigma = 5e-18;
  const double u = kE * kE / (2.0 * c_sigma);
  const double e1 = -kE * v_half + u;  // hop drn -> island (or island -> src)
  ASSERT_GT(e1, 0.0) << "fixture not in blockade";
  const double dw_total = -kE * (2.0 * v_half);
  const double gamma =
      cotunneling_rate(dw_total, e1, e1, 1e6, 1e6, 0.0);
  ASSERT_GT(gamma, 0.0);

  const CurrentEstimate est = measure_mean_current(
      e, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{500, 20000, 5});
  EXPECT_NEAR(est.mean, kE * gamma, 0.05 * kE * gamma);
}

TEST(EngineCotunneling, CurrentRoughlyCubicInBias) {
  auto current_at = [](double v_half) {
    SetFixture f(v_half, -v_half, 0.0);
    EngineOptions o = opts(0.0, true, 59);
    o.cotunneling = true;
    Engine e(f.c, o);
    return measure_mean_current(e, {{0, 1.0}, {1, 1.0}},
                                CurrentMeasureConfig{500, 20000, 5})
        .mean;
  };
  const double i1 = current_at(0.002);
  const double i2 = current_at(0.004);
  ASSERT_GT(i1, 0.0);
  // I ~ V^3 modified by the bias dependence of the intermediate energies:
  // the ratio must sit clearly above the ohmic value 2 and near 8.
  EXPECT_GT(i2 / i1, 6.0);
  EXPECT_LT(i2 / i1, 13.0);
}

TEST(EngineCotunneling, NoCotunnelingMeansNoBlockadeCurrent) {
  SetFixture f(0.005, -0.005, 0.0);
  Engine e(f.c, opts(0.0, true, 61));
  EXPECT_DOUBLE_EQ(e.total_rate(), 0.0);
}

// ---- superconducting engine ----------------------------------------------------------

TEST(EngineSuperconducting, ForcesNonAdaptiveSolver) {
  SetFixture f(0.001, -0.001, 0.0);
  f.c.set_superconducting({0.2e-3 * kElectronVolt, 1.2});
  EngineOptions o = opts(0.05, true, 67);
  Engine e(f.c, o);
  e.run_events(200);
  const SolverStats s = e.stats();
  // Every event recomputes every junction: full refresh accounting.
  EXPECT_GE(s.full_refreshes, s.events);
}

TEST(EngineSuperconducting, GapEnlargesBlockedRegion) {
  // Paper Fig. 1c: the suppressed-current region extends to
  // Vds ~ (e/C + 4 Delta/e)... qualitatively: at a bias where the normal SET
  // conducts strongly, the SSET with 2 Delta per junction still blocks
  // quasi-particle flow.
  const double v_half = 0.0185;  // just above the normal threshold of 16 mV...
  SetFixture fn(v_half, -v_half, 0.0);
  Engine en(fn.c, opts(0.05, false, 71));
  EXPECT_GT(en.total_rate(), 0.0);

  SetFixture fs(v_half, -v_half, 0.0);
  fs.c.set_superconducting({2e-3 * kElectronVolt, 12.0});  // big gap
  Engine es(fs.c, opts(0.05, false, 71));
  const CurrentEstimate est = measure_mean_current(
      es, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{200, 2000, 3});
  const CurrentEstimate ref = measure_mean_current(
      en, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{200, 2000, 3});
  EXPECT_LT(std::abs(est.mean), 0.2 * std::abs(ref.mean));
}

// ---- parser -> engine integration ------------------------------------------------------

TEST(Integration, PaperExampleInputRuns) {
  const SimulationInput in = parse_simulation_input(std::string(R"(
junc 1 1 4 1meg 1e-18
junc 2 4 2 1meg 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
num j 2
num ext 3
num nodes 4
temp 5
record 2 1 2
jumps 20000 1
)"));
  EngineOptions o;
  o.temperature = in.temperature;
  o.cotunneling = in.cotunneling;
  o.seed = 73;
  Engine e(in.circuit, o);
  std::vector<CurrentProbe> probes;
  for (std::size_t j : in.record_junctions) probes.push_back({j, 1.0});
  const CurrentEstimate est = measure_mean_current(
      e, probes, CurrentMeasureConfig{2000, in.max_jumps, 5});
  // 40 mV symmetric bias at 5 K: a few nA, positive (src -> drn).
  EXPECT_GT(est.mean, 1e-9);
  EXPECT_LT(est.mean, 1e-8);
}

TEST(Integration, IvSweepShowsCoulombBlockade) {
  SetFixture f(0.0, 0.0, 0.0);
  IvSweepConfig cfg;
  cfg.swept = f.src;
  cfg.mirror = f.drn;
  cfg.from = -0.02;
  cfg.to = 0.02;
  cfg.step = 0.005;
  cfg.probes = {{0, 1.0}, {1, 1.0}};
  cfg.measure = CurrentMeasureConfig{1000, 15000, 4};
  // One chunk of all nine points: the serial, warm-started sweep.
  const auto points = run_iv_sweep(f.c, opts(0.5, true, 79), cfg,
                                   ParallelExecutor(1),
                                   ParallelSweepConfig{79, 9});
  ASSERT_EQ(points.size(), 9u);
  // Midpoint (V = 0) is deep in blockade, endpoints conduct.
  const double i_mid = std::abs(points[4].current);
  const double i_end = std::abs(points[8].current);
  EXPECT_LT(i_mid, 0.05 * i_end);
  // Antisymmetry: I(-V) ~ -I(V).
  EXPECT_NEAR(points[0].current, -points[8].current,
              0.15 * std::abs(points[8].current));
}

}  // namespace
}  // namespace semsim
