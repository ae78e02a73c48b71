// Tests for the master-equation solver: exact analytic references, cross-
// validation against the Monte-Carlo engine, and state-space behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/current.h"
#include "base/constants.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "master/master_equation.h"
#include "master/state_space.h"
#include "physics/cotunneling.h"

namespace semsim {
namespace {

constexpr double kE = kElementaryCharge;

EngineOptions opts(double t) {
  EngineOptions o;
  o.temperature = t;
  return o;
}

// ---- state space -----------------------------------------------------------------

TEST(StateSpace, ContainsNeutralAndChargedStates) {
  auto f = make_set(0.02, -0.02, 0.0);
  ElectrostaticModel m(f.c);
  StateSpaceOptions so;
  so.temperature = 1.0;
  StateSpace s(f.c, m, {0.02, -0.02, 0.0}, so);
  EXPECT_GE(s.size(), 3u);  // at least n = -1, 0, +1
  EXPECT_EQ(s.state(s.neutral_index()), ChargeState{0});
  EXPECT_DOUBLE_EQ(s.energy(s.neutral_index()), 0.0);
  EXPECT_GE(s.index_of({1}), 0);
  EXPECT_GE(s.index_of({-1}), 0);
  EXPECT_EQ(s.index_of({99}), -1);
}

TEST(StateSpace, EnergiesMatchChargingFormula) {
  auto f = make_set();  // all sources 0
  ElectrostaticModel m(f.c);
  StateSpaceOptions so;
  so.temperature = 10.0;
  StateSpace s(f.c, m, {0.0, 0.0, 0.0}, so);
  const double u = kE * kE / (2.0 * 5e-18);
  // F(n) - F(0) = n^2 u at zero bias.
  for (const int n : {-2, -1, 1, 2}) {
    const int i = s.index_of({n});
    if (i < 0) continue;
    EXPECT_NEAR(s.energy(static_cast<std::size_t>(i)),
                static_cast<double>(n * n) * u, 1e-26)
        << "n = " << n;
  }
}

TEST(StateSpace, RespectsOccupationBound) {
  auto f = make_set();
  ElectrostaticModel m(f.c);
  StateSpaceOptions so;
  so.temperature = 300.0;  // hot: everything thermally reachable
  so.occupation_bound = 2;
  StateSpace s(f.c, m, {0.0, 0.0, 0.0}, so);
  EXPECT_EQ(s.size(), 5u);  // n in [-2, 2]
}

TEST(StateSpace, BudgetOverflowThrows) {
  auto f = make_set();
  ElectrostaticModel m(f.c);
  StateSpaceOptions so;
  so.temperature = 300.0;
  so.max_states = 3;
  EXPECT_THROW(StateSpace(f.c, m, {0.0, 0.0, 0.0}, so), Error);
}

// ---- master equation vs analytic -----------------------------------------------------

TEST(MasterEq, MatchesThreeStateAnalyticAtZeroTemperature) {
  // Same analytic reference as the engine test: symmetric bias above
  // threshold, Vg = 0 -> I = 2 e Ga Gb / (Gb + 2 Ga).
  const double v_half = 0.02;
  auto f = make_set(v_half, -v_half, 0.0);
  MasterEquationSolver me(f.c, opts(0.0));
  const double c_sigma = 5e-18;
  const double u = kE * kE / (2.0 * c_sigma);
  const double r = 1e6;
  const double ga = (kE * v_half - u) / (kE * kE * r);
  const double gb = (kE * (v_half + kE / c_sigma) - u) / (kE * kE * r);
  const double expected = 2.0 * kE * ga * gb / (gb + 2.0 * ga);
  EXPECT_NEAR(me.junction_current(0), expected, 1e-9 * expected);
  EXPECT_NEAR(me.junction_current(1), expected, 1e-9 * expected);
  EXPECT_LT(me.residual(), 1e-9);
}

TEST(MasterEq, EquilibriumIsBoltzmann) {
  const double temp = 20.0;
  auto f = make_set();
  MasterEquationSolver me(f.c, opts(temp));
  const double u = kE * kE / (2.0 * 5e-18);
  const double expected = std::exp(-u / (kBoltzmann * temp));
  EXPECT_NEAR(me.probability_of({1}) / me.probability_of({0}), expected,
              1e-6 * expected);
  EXPECT_NEAR(me.probability_of({-1}) / me.probability_of({0}), expected,
              1e-6 * expected);
  EXPECT_NEAR(me.mean_occupation(f.island), 0.0, 1e-12);
  // Currents vanish in equilibrium.
  EXPECT_NEAR(me.junction_current(0), 0.0, 1e-20);
}

TEST(MasterEq, GatePeriodicity) {
  const double period = kE / 3e-18;
  auto f1 = make_set(0.01, -0.01, 0.013);
  auto f2 = make_set(0.01, -0.01, 0.013 + period);
  MasterEquationSolver m1(f1.c, opts(5.0));
  MasterEquationSolver m2(f2.c, opts(5.0));
  const double i1 = m1.junction_current(0);
  const double i2 = m2.junction_current(0);
  ASSERT_GT(std::abs(i1), 1e-12);
  EXPECT_NEAR(i2 / i1, 1.0, 1e-3);
  // One full period pumps exactly one extra electron onto the island.
  EXPECT_NEAR(m2.mean_occupation(f2.island) - m1.mean_occupation(f1.island),
              1.0, 1e-3);
}

TEST(MasterEq, CotunnelingBlockadeCurrentMatchesClosedForm) {
  const double v_half = 0.005;
  auto f = make_set(v_half, -v_half, 0.0);
  EngineOptions o = opts(0.0);
  o.cotunneling = true;
  MasterEquationSolver me(f.c, o);
  const double u = kE * kE / (2.0 * 5e-18);
  const double e1 = -kE * v_half + u;
  const double gamma =
      cotunneling_rate(-kE * 2.0 * v_half, e1, e1, 1e6, 1e6, 0.0);
  EXPECT_NEAR(me.junction_current(0), kE * gamma, 1e-6 * kE * gamma);
}

TEST(MasterEq, FiniteTemperatureCotunnelingMatchesMonteCarlo) {
  // Inside the blockade at finite T both sequential (thermally activated)
  // and second-order channels flow; the ME sums them exactly, the MC
  // samples them — they must agree.
  const double v_half = 0.006;
  auto fm = make_set(v_half, -v_half, 0.0);
  EngineOptions o = opts(3.0);
  o.cotunneling = true;
  MasterEquationSolver me(fm.c, o);
  const double i_me = me.junction_current(0);
  ASSERT_GT(i_me, 0.0);

  auto fe = make_set(v_half, -v_half, 0.0);
  o.seed = 17;
  Engine mc(fe.c, o);
  const CurrentEstimate est = measure_mean_current(
      mc, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{3000, 60000, 8});
  EXPECT_NEAR(est.mean / i_me, 1.0, 0.08);
}

TEST(MasterEq, JqpResonanceAppearsInStationarySolution) {
  // The Fig. 5 physics through the second method: an SSET biased at the
  // analytic Cooper-pair resonance carries far more sub-gap current than
  // the same device detuned by a few linewidths.
  const double temp = 0.52, tc = 1.2, rj = 2.1e5;
  const double delta0 =
      0.21e-3 * kElectronVolt / std::tanh(1.74 * std::sqrt(tc / temp - 1.0));

  auto sset_current = [&](double vb, double vg) {
    const auto f = make_set(vb, 0.0, vg,
                            {rj, 110e-18, 14e-18, 0.65,
                             SuperconductingParams{delta0, tc}});
    EngineOptions o = opts(temp);
    o.qp_table_half_range = 40.0 * delta0;
    MasterEquationSolver me(f.c, o);
    return std::abs(me.junction_current(0));
  };
  // Resonance bias for Vg = 8 mV computed as in bench/text_jqp_validation.
  const double v_res = 0.451e-3;
  const double on = sset_current(v_res, 0.008);
  const double off = sset_current(v_res + 0.25e-3, 0.008);
  // At 0.52 K the thermally excited quasi-particle background is itself
  // substantial (the paper's singularity-matching modes), so the resonance
  // stands a factor ~2 above it rather than decades.
  EXPECT_GT(on, 1.5 * off);
}

// ---- master equation vs Monte-Carlo ---------------------------------------------------

class MeVsMc : public ::testing::TestWithParam<double> {};

TEST_P(MeVsMc, CurrentsAgreeAcrossBias) {
  const double v_half = GetParam();
  const double temp = 2.0;
  auto fm = make_set(v_half, -v_half, 0.005);
  MasterEquationSolver me(fm.c, opts(temp));
  const double i_me = me.junction_current(0);

  auto fe = make_set(v_half, -v_half, 0.005);
  EngineOptions eo = opts(temp);
  eo.seed = 77;
  Engine mc(fe.c, eo);
  const CurrentEstimate est = measure_mean_current(
      mc, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{4000, 80000, 8});

  if (std::abs(i_me) < 1e-14) {
    EXPECT_LT(std::abs(est.mean), 1e-12);
  } else {
    EXPECT_NEAR(est.mean / i_me, 1.0, 0.06)
        << "ME " << i_me << " vs MC " << est.mean;
  }
}

INSTANTIATE_TEST_SUITE_P(BiasSweep, MeVsMc,
                         ::testing::Values(0.012, 0.016, 0.02, 0.024, 0.03));

TEST(MeVsMcSc, SupercurrentAgreesAboveGap) {
  // SSET above the quasi-particle threshold: ME with QP + CP channels vs MC.
  const double v_half = 0.019;
  const SetElements sset{.superconducting = kFig1cMaterial};
  auto fm = make_set(v_half, -v_half, 0.0, sset);
  EngineOptions o = opts(0.3);
  o.qp_table_half_range = 40.0 * kFig1cMaterial.delta0;
  MasterEquationSolver me(fm.c, o);
  const double i_me = me.junction_current(0);

  auto fe = make_set(v_half, -v_half, 0.0, sset);
  o.seed = 5;
  Engine mc(fe.c, o);
  const CurrentEstimate est = measure_mean_current(
      mc, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{2000, 40000, 8});
  ASSERT_GT(std::abs(i_me), 1e-12);
  EXPECT_NEAR(est.mean / i_me, 1.0, 0.08);
}

}  // namespace
}  // namespace semsim
