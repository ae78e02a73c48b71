// Second tranche of engine tests: statistical-mechanics properties,
// superconducting channel bookkeeping, observers, shared models, and the
// rate-calculator binding.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analysis/current.h"
#include "base/constants.h"
#include "core/engine.h"
#include "core/rate_calculator.h"
#include "logic/devices.h"
#include "physics/cooper_pair.h"
#include "physics/qp_rate.h"
#include "physics/rates.h"

namespace semsim {
namespace {

constexpr double kE = kElementaryCharge;

EngineOptions opts(double t, std::uint64_t seed = 1) {
  EngineOptions o;
  o.temperature = t;
  o.seed = seed;
  return o;
}

// ---- statistical mechanics -----------------------------------------------------

TEST(EngineStatMech, EquilibriumOccupationIsBoltzmann) {
  // Zero bias, T > 0: the island charge distribution must follow
  // P(n)/P(0) = exp(-dF(n)/kT) with dF(n) = n^2 e^2 / 2 C_sigma.
  const double temp = 40.0;  // hot enough that n = +-1 is well populated
  auto f = make_set();
  Engine e(f.c, opts(temp, 31));
  std::map<long, double> occupancy;  // time-weighted
  e.run_events(5000);
  Event ev;
  long state = e.electron_count(f.island);
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(e.step(&ev));
    // The waiting time dt was spent in the PRE-event state.
    occupancy[state] += ev.dt;
    state = e.electron_count(f.island);
  }
  const double c_sigma = 5e-18;
  const double df1 = kE * kE / (2.0 * c_sigma);  // F(1) - F(0)
  const double expected = std::exp(-df1 / (kBoltzmann * temp));
  ASSERT_GT(occupancy[0], 0.0);
  ASSERT_GT(occupancy[1], 0.0);
  const double p1 = occupancy[1] / occupancy[0];
  const double pm1 = occupancy[-1] / occupancy[0];
  EXPECT_NEAR(p1, expected, 0.10 * expected);
  EXPECT_NEAR(pm1, expected, 0.10 * expected);
}

TEST(EngineStatMech, GateShiftsEquilibriumOccupation) {
  // At the degeneracy gate voltage, states n = 0 and n = 1 are equally
  // occupied at any temperature.
  // Degeneracy: gate-induced island potential 0.6 Vg equals e/2 C_sigma.
  const double vg_degeneracy = kE / (2.0 * 5e-18) / 0.6;
  auto f = make_set(0.0, 0.0, vg_degeneracy);
  Engine e(f.c, opts(2.0, 33));
  std::map<long, double> occupancy;
  e.run_events(2000);
  Event ev;
  long state = e.electron_count(f.island);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(e.step(&ev));
    occupancy[state] += ev.dt;
    state = e.electron_count(f.island);
  }
  ASSERT_GT(occupancy[0], 0.0);
  ASSERT_GT(occupancy[1], 0.0);
  EXPECT_NEAR(occupancy[1] / occupancy[0], 1.0, 0.1);
}

// ---- observers and accessors ------------------------------------------------------

TEST(EngineObservers, EventCallbackSeesEveryEvent) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, opts(0.0, 35));
  std::uint64_t called = 0;
  double last_time = -1.0;
  Event ev;
  while (called < 500 && e.step(&ev)) {
    ++called;
    EXPECT_GT(ev.time, last_time);
    EXPECT_EQ(ev.time, e.time());
    last_time = ev.time;
  }
  EXPECT_EQ(called, 500u);
}

TEST(EngineObservers, JunctionRateAccessorMatchesOrthodox) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, opts(0.0, 37));
  // Junction 1 = (island, drn), backward = electron drn -> island; compare
  // with the orthodox formula at the current (neutral) state.
  const double v_isl = e.node_voltage(f.island);
  const double u = kE * kE / (2.0 * 5e-18);
  const double dw = -kE * (v_isl - (-0.02)) + u;
  EXPECT_NEAR(e.junction_rate(1, false), orthodox_rate(dw, 1e6, 0.0),
              1e-4 * orthodox_rate(dw, 1e6, 0.0));
}

TEST(EngineObservers, SetElectronCountsMovesState) {
  auto f = make_set();
  Engine e(f.c, opts(0.0));
  EXPECT_NEAR(e.node_voltage(f.island), 0.0, 1e-12);
  e.set_electron_counts({{f.island, -3}});
  EXPECT_EQ(e.electron_count(f.island), -3);
  EXPECT_NEAR(e.node_voltage(f.island), 3.0 * kE / 5e-18, 1e-6);
  e.reset(1);
  EXPECT_EQ(e.electron_count(f.island), 0);
}

TEST(EngineObservers, SharedModelGivesIdenticalTrajectories) {
  auto f1 = make_set(0.02, -0.02, 0.0), f2 = make_set(0.02, -0.02, 0.0);
  auto model = std::make_shared<const ElectrostaticModel>(f1.c);
  Engine a(f1.c, opts(1.0, 41), model);
  Engine b(f2.c, opts(1.0, 41));  // private model, same physics
  for (int i = 0; i < 300; ++i) {
    Event ea, eb;
    ASSERT_TRUE(a.step(&ea));
    ASSERT_TRUE(b.step(&eb));
    ASSERT_DOUBLE_EQ(ea.time, eb.time);
    ASSERT_EQ(ea.from, eb.from);
    ASSERT_EQ(ea.to, eb.to);
  }
}

TEST(EngineObservers, StatsCountersAreConsistent) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, opts(1.0, 43));
  e.run_events(2000);
  const SolverStats s = e.stats();
  EXPECT_EQ(s.events, 2000u);
  EXPECT_GT(s.rate_evaluations, 0u);
  EXPECT_GT(s.potential_node_updates, 0u);
  EXPECT_GE(s.junctions_tested, s.junctions_flagged);
}

// ---- superconducting channels --------------------------------------------------------

TEST(EngineSc2, CooperPairEventsCarryTwoElectrons) {
  // Bias the SSET at the CP resonance so pair events dominate; every event
  // must move charge in units the bookkeeping can absorb exactly.
  auto f = make_set(0.0, 0.0, 0.0, {.superconducting = kFig1cMaterial});
  EngineOptions o = opts(0.1, 47);
  Engine e(f.c, o);
  Event ev;
  int cp_seen = 0;
  for (int i = 0; i < 3000 && e.step(&ev); ++i) {
    if (ev.kind == Event::Kind::kCooperPair) {
      ++cp_seen;
      EXPECT_NEAR(ev.charge, -2.0 * kE, 1e-30);
    } else {
      EXPECT_NEAR(ev.charge, -kE, 1e-30);
    }
  }
  EXPECT_GT(cp_seen, 0) << "no Cooper-pair events at zero bias resonance";
}

TEST(EngineSc2, QpTableAutoRangeCoversSweep) {
  // Without an explicit hint the auto range must cover typical biases so
  // the cached path (not the slow integral) is used; indirectly verified by
  // wall-clock-friendly event throughput here.
  auto f = make_set(0.002, -0.002, 0.0, {.superconducting = kFig1cMaterial});
  Engine e(f.c, opts(0.3, 49));
  EXPECT_GT(e.run_events(2000), 0u);
}

TEST(EngineSc2, QpTableFillsOnlyTheEntriesTheRunReads) {
  // The Fig. 1c SSET at 50 mK and +-50 mV on the engine's default range:
  // ~15k grid points, while the free-energy changes of a run stay near the
  // bias and bracket about 20 of them. After construction and 10^4 events
  // under 1 % of the entries may be filled.
  auto f = make_set(0.05, -0.05, 0.0, {.superconducting = kFig1cMaterial});
  Engine e(f.c, opts(0.05, 51));
  const QuasiparticleRate& table = *e.rate_calculator().qp_unit();
  const std::size_t points = table.table_w().size();
  ASSERT_GT(points, 10000u);
  EXPECT_EQ(e.run_events(10000), 10000u);
  EXPECT_GT(table.filled_entries(), 0u);
  EXPECT_LT(table.filled_entries(), points / 100)
      << table.filled_entries() << " of " << points << " entries filled";
}

// ---- rate calculator ---------------------------------------------------------------

TEST(RateCalc, RejectsCotunnelingWithSuperconductivity) {
  auto f = make_set(0.0, 0.0, 0.0, {.superconducting = kFig1cMaterial});
  EngineOptions o = opts(0.1);
  o.cotunneling = true;
  EXPECT_THROW(Engine(f.c, o), CircuitError);
}

TEST(RateCalc, ChargingTermMatchesAnalytic) {
  auto f = make_set();
  ElectrostaticModel m(f.c);
  EngineOptions o = opts(1.0);
  RateCalculator rc(f.c, m, o);
  const double expected = kE * kE / (2.0 * 5e-18);
  EXPECT_NEAR(rc.charging_term(0), expected, 1e-6 * expected);
  EXPECT_NEAR(rc.charging_term(1), expected, 1e-6 * expected);
}

TEST(RateCalc, JunctionRatesAreSymmetricUnderNodeSwap) {
  auto f = make_set();
  ElectrostaticModel m(f.c);
  EngineOptions o = opts(2.0);
  RateCalculator rc(f.c, m, o);
  const ChannelRates r = rc.junction_rates(0, 0.01, -0.004);
  const ChannelRates rs = rc.junction_rates(0, -0.004, 0.01);
  // Swapping the node potentials exchanges forward and backward channels.
  EXPECT_DOUBLE_EQ(r.rate_fw, rs.rate_bw);
  EXPECT_DOUBLE_EQ(r.rate_bw, rs.rate_fw);
  EXPECT_DOUBLE_EQ(r.dw_fw, rs.dw_bw);
  // dw_fw + dw_bw = 2u always.
  EXPECT_NEAR(r.dw_fw + r.dw_bw, 2.0 * rc.charging_term(0), 1e-27);
}

TEST(RateCalc, CooperPairChargingIsQuadrupled) {
  auto f = make_set(0.0, 0.0, 0.0, {.superconducting = kFig1cMaterial});
  ElectrostaticModel m(f.c);
  EngineOptions o = opts(0.1);
  RateCalculator rc(f.c, m, o);
  const ChannelRates cp = rc.cooper_pair_rates(0, 0.0, 0.0);
  EXPECT_NEAR(cp.dw_fw, 4.0 * rc.charging_term(0), 1e-27);
  EXPECT_NEAR(cp.dw_bw, 4.0 * rc.charging_term(0), 1e-27);
}

TEST(RateCalc, GapFollowsTemperature) {
  auto f = make_set(0.0, 0.0, 0.0, {.superconducting = kFig1cMaterial});
  ElectrostaticModel m(f.c);
  EngineOptions cold = opts(0.05);
  EngineOptions warm = opts(1.0);
  RateCalculator rc_cold(f.c, m, cold);
  RateCalculator rc_warm(f.c, m, warm);
  EXPECT_GT(rc_cold.gap(), rc_warm.gap());
  EXPECT_GT(rc_warm.gap(), 0.0);
}

// ---- cotunneling bookkeeping ----------------------------------------------------------

TEST(EngineCot2, CotunnelingMovesChargeThroughBothJunctions) {
  auto f = make_set(0.004, -0.004, 0.0);
  EngineOptions o = opts(0.0, 51);
  o.cotunneling = true;
  Engine e(f.c, o);
  Event ev;
  ASSERT_TRUE(e.step(&ev));
  EXPECT_EQ(ev.kind, Event::Kind::kCotunneling);
  // Net transfer src <-> drn; the island stays neutral.
  EXPECT_EQ(e.electron_count(f.island), 0);
  // Both junctions record one elementary charge.
  EXPECT_NEAR(std::abs(e.junction_transferred_e(0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(e.junction_transferred_e(1)), 1.0, 1e-12);
}

}  // namespace
}  // namespace semsim
