// Tests for the physics models: orthodox rates, free energy (fast formula vs
// first-principles oracle), BCS, quasi-particle integrals, Cooper pairs,
// cotunneling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/constants.h"
#include "base/random.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "physics/bcs.h"
#include "physics/cooper_pair.h"
#include "physics/cotunneling.h"
#include "physics/free_energy.h"
#include "physics/qp_rate.h"
#include "physics/rates.h"

namespace semsim {
namespace {

constexpr double kE = kElementaryCharge;
constexpr double kKb = kBoltzmann;

// ---- orthodox rate ----------------------------------------------------------

TEST(OrthodoxRate, ZeroTemperatureLimits) {
  const double r = 1e6;
  EXPECT_DOUBLE_EQ(orthodox_rate(1e-21, r, 0.0), 0.0);  // unfavourable
  EXPECT_NEAR(orthodox_rate(-1e-21, r, 0.0), 1e-21 / (kE * kE * r), 1e-3);
}

TEST(OrthodoxRate, ZeroBiasFiniteTemperature) {
  const double r = 1e6, t = 4.2;
  EXPECT_NEAR(orthodox_rate(0.0, r, t), kKb * t / (kE * kE * r),
              1e-6 * kKb * t / (kE * kE * r));
}

TEST(OrthodoxRate, DetailedBalance) {
  const double r = 1e6, t = 1.0;
  const double kt = kKb * t;
  for (double w : {0.1 * kt, kt, 5.0 * kt, 20.0 * kt}) {
    const double fwd = orthodox_rate(-w, r, t);
    const double bwd = orthodox_rate(w, r, t);
    EXPECT_NEAR(bwd / fwd, std::exp(-w / kt), 1e-9);
  }
}

TEST(OrthodoxRate, MonotoneInEnergyGain) {
  const double r = 1e6, t = 2.0;
  double prev = -1.0;
  for (double w = 5e-21; w >= -5e-21; w -= 1e-22) {
    const double g = orthodox_rate(w, r, t);
    EXPECT_GE(g, prev);
    prev = g;
  }
}

TEST(OrthodoxRate, ScalesInverselyWithResistance) {
  EXPECT_NEAR(orthodox_rate(-1e-21, 1e6, 1.0) / orthodox_rate(-1e-21, 2e6, 1.0),
              2.0, 1e-12);
}

// ---- free energy -------------------------------------------------------------

struct SetCircuit {
  Circuit c;
  NodeId src, drn, gate, island;
  SetCircuit() {
    src = c.add_external();
    drn = c.add_external();
    gate = c.add_external();
    island = c.add_island();
    c.add_junction(src, island, 1e6, 1e-18);
    c.add_junction(drn, island, 1e6, 1e-18);
    c.add_capacitor(gate, island, 3e-18);
  }
};

TEST(FreeEnergy, SetChargingEnergyAtZeroBias) {
  SetCircuit f;
  ElectrostaticModel m(f.c);
  const std::vector<double> v_ext = {0.0, 0.0, 0.0};
  const std::vector<double> v_isl = m.island_potentials({0.0}, v_ext);
  const ChargeMove mv{f.src, f.island, -kE};
  // Lead -> neutral island at zero bias costs exactly e^2 / 2 C_sigma.
  const double expected = kE * kE / (2.0 * 5e-18);
  EXPECT_NEAR(delta_w(m, v_isl, v_ext, mv), expected, 1e-27);
  EXPECT_NEAR(delta_w_oracle(m, {0.0}, v_ext, mv), expected, 1e-27);
}

TEST(FreeEnergy, BlockadeThresholdAtSymmetricBias) {
  // dW = 0 for the drain->island hop exactly at Vds = e / C_sigma.
  SetCircuit f;
  ElectrostaticModel m(f.c);
  const double v_half = kE / 5e-18 / 2.0;
  const std::vector<double> v_ext = {v_half, -v_half, 0.0};
  const std::vector<double> v_isl = m.island_potentials({0.0}, v_ext);
  const ChargeMove mv{f.drn, f.island, -kE};
  EXPECT_NEAR(delta_w(m, v_isl, v_ext, mv), 0.0, 1e-27);
}

TEST(FreeEnergy, GatePeriodicity) {
  // Adding e/Cg to the gate and one electron to the island returns all
  // tunneling energies to their originals (Coulomb-blockade periodicity).
  SetCircuit f;
  ElectrostaticModel m(f.c);
  const double vg_period = kE / 3e-18;
  const std::vector<double> ext0 = {0.0, 0.0, 0.0};
  const std::vector<double> ext1 = {0.0, 0.0, vg_period};
  const ChargeMove mv{f.src, f.island, -kE};

  const double w0 = delta_w_oracle(m, {0.0}, ext0, mv);
  const double w1 = delta_w_oracle(m, {-kE}, ext1, mv);
  EXPECT_NEAR(w0, w1, 1e-27);
}

TEST(FreeEnergy, ForwardPlusBackwardIsTwiceChargingTerm) {
  SetCircuit f;
  ElectrostaticModel m(f.c);
  const std::vector<double> v_ext = {0.013, -0.007, 0.021};
  const std::vector<double> v_isl = m.island_potentials({0.4e-19}, v_ext);
  const ChargeMove fw{f.src, f.island, -kE};
  const ChargeMove bw{f.island, f.src, -kE};
  const double u2 = kE * kE * m.kappa_node(f.island, f.island);
  EXPECT_NEAR(delta_w(m, v_isl, v_ext, fw) + delta_w(m, v_isl, v_ext, bw), u2,
              1e-27);
}

// Random multi-island circuits: the Eq. 2 fast path must agree with the
// first-principles oracle for every topology and every state.
class FreeEnergyProperty : public ::testing::TestWithParam<int> {};

TEST_P(FreeEnergyProperty, FastFormulaMatchesOracle) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  Circuit c;
  const int n_ext = 2 + static_cast<int>(rng.uniform_below(3));
  const int n_isl = 1 + static_cast<int>(rng.uniform_below(5));
  std::vector<NodeId> ext, isl;
  for (int i = 0; i < n_ext; ++i) ext.push_back(c.add_external());
  for (int i = 0; i < n_isl; ++i) isl.push_back(c.add_island());
  // Chain every island to a lead or previous island so C_II is SPD.
  for (int i = 0; i < n_isl; ++i) {
    const NodeId prev = i == 0 ? ext[0] : isl[static_cast<std::size_t>(i - 1)];
    c.add_junction(prev, isl[static_cast<std::size_t>(i)],
                   1e6 * (1.0 + rng.uniform01()),
                   1e-18 * (0.5 + rng.uniform01()));
  }
  // Random extra couplings.
  for (int k = 0; k < 2 * n_isl; ++k) {
    const NodeId a = isl[rng.uniform_below(static_cast<std::uint64_t>(n_isl))];
    const NodeId b = ext[rng.uniform_below(static_cast<std::uint64_t>(n_ext))];
    if (rng.uniform01() < 0.5) {
      c.add_capacitor(a, b, 1e-18 * (0.5 + 3.0 * rng.uniform01()));
    } else {
      c.add_junction(a, b, 1e6, 1e-18 * (0.5 + rng.uniform01()));
    }
  }
  ElectrostaticModel m(c);

  std::vector<double> q(m.island_count());
  for (auto& v : q) v = kE * (std::floor(rng.uniform01() * 7.0) - 3.0);
  std::vector<double> v_ext(m.external_count());
  for (auto& v : v_ext) v = 0.05 * (2.0 * rng.uniform01() - 1.0);
  const std::vector<double> v_isl = m.island_potentials(q, v_ext);

  // Every junction, both directions, electron and pair charges.
  for (std::size_t j = 0; j < c.junction_count(); ++j) {
    for (const double charge : {-kE, -2.0 * kE}) {
      const Junction& jn = c.junction(j);
      for (const ChargeMove mv :
           {ChargeMove{jn.a, jn.b, charge}, ChargeMove{jn.b, jn.a, charge}}) {
        const double fast = delta_w(m, v_isl, v_ext, mv);
        const double oracle = delta_w_oracle(m, q, v_ext, mv);
        EXPECT_NEAR(fast, oracle, 1e-25 + 1e-9 * std::abs(oracle))
            << "junction " << j << " charge " << charge;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, FreeEnergyProperty,
                         ::testing::Range(1, 25));

// ---- BCS ----------------------------------------------------------------------

TEST(Bcs, GapEndpoints) {
  const double d0 = 0.2e-3 * kElectronVolt;
  EXPECT_DOUBLE_EQ(bcs_gap(d0, 1.2, 0.0), d0);
  EXPECT_DOUBLE_EQ(bcs_gap(d0, 1.2, 1.2), 0.0);
  EXPECT_DOUBLE_EQ(bcs_gap(d0, 1.2, 5.0), 0.0);
  // Nearly full gap at T << Tc.
  EXPECT_NEAR(bcs_gap(d0, 1.2, 0.05), d0, 0.01 * d0);
}

TEST(Bcs, GapMonotoneDecreasing) {
  const double d0 = 1e-22;
  double prev = d0;
  for (double t = 0.1; t < 1.2; t += 0.1) {
    const double g = bcs_gap(d0, 1.2, t);
    EXPECT_LE(g, prev + 1e-30);
    prev = g;
  }
}

TEST(Bcs, ReducedDos) {
  const double d = 1e-22;
  EXPECT_DOUBLE_EQ(bcs_reduced_dos(0.0, d), 0.0);
  EXPECT_DOUBLE_EQ(bcs_reduced_dos(0.5 * d, d), 0.0);
  EXPECT_GT(bcs_reduced_dos(1.001 * d, d), 10.0);    // near-edge divergence
  EXPECT_NEAR(bcs_reduced_dos(100.0 * d, d), 1.0, 1e-3);  // asymptote
  EXPECT_DOUBLE_EQ(bcs_reduced_dos(-2.0 * d, d), bcs_reduced_dos(2.0 * d, d));
}

// ---- quasi-particle rate -------------------------------------------------------

TEST(QpRate, NormalLimitMatchesOrthodox) {
  QuasiparticleRate qp({1e6, 0.0, 0.0, 4.2});
  for (double w : {-5e-21, -1e-21, -1e-23, 0.0, 1e-23, 1e-21}) {
    const double expect = orthodox_rate(w, 1e6, 4.2);
    EXPECT_NEAR(qp.rate(w), expect, 1e-3 * expect + 1e-3)
        << "dw = " << w;
  }
}

TEST(QpRate, ZeroTemperatureGapThreshold) {
  const double d = 0.2e-3 * kElectronVolt;
  QuasiparticleRate qp({1e5, d, d, 0.0});
  // No states available until the energy gain exceeds 2 Delta.
  EXPECT_DOUBLE_EQ(qp.rate(-1.9 * d), 0.0);
  EXPECT_DOUBLE_EQ(qp.rate(0.0), 0.0);
  EXPECT_GT(qp.rate(-2.1 * d), 0.0);
  // Unfavourable: always zero at T = 0.
  EXPECT_DOUBLE_EQ(qp.rate(3.0 * d), 0.0);
}

TEST(QpRate, DetailedBalanceSuperconducting) {
  const double d = 0.2e-3 * kElectronVolt;
  const double t = 0.5;
  const double kt = kKb * t;
  QuasiparticleRate qp({1e5, d, d, t});
  for (double w : {0.5 * d, 1.0 * d, 2.5 * d}) {
    const double fwd = qp.rate(-w);
    const double bwd = qp.rate(w);
    ASSERT_GT(fwd, 0.0);
    EXPECT_NEAR(bwd / fwd, std::exp(-w / kt), 0.02 * std::exp(-w / kt));
  }
}

TEST(QpRate, ApproachesNormalStateFarAboveGap) {
  // Far above threshold the SIS rate approaches the normal-state value.
  const double d = 0.2e-3 * kElectronVolt;
  QuasiparticleRate qp({1e5, d, d, 0.0});
  const double w = -40.0 * d;
  const double normal = orthodox_rate(w, 1e5, 0.0);
  EXPECT_NEAR(qp.rate(w), normal, 0.01 * normal);
}

TEST(QpRate, SingularityMatchingBumpAtFiniteTemperature) {
  // Thermally excited quasi-particles give a sub-gap feature near dW = 0
  // that is absent at T = 0 (the physics behind the paper's Fig. 5 solid
  // diamonds).
  const double d = 0.21e-3 * kElectronVolt;
  QuasiparticleRate cold({2.1e5, d, d, 0.0});
  QuasiparticleRate warm({2.1e5, d, d, 0.52});
  EXPECT_DOUBLE_EQ(cold.rate(-0.5 * d), 0.0);
  EXPECT_GT(warm.rate(-0.5 * d), 0.0);
}

TEST(QpRate, TableMatchesDirectIntegral) {
  const double d = 0.21e-3 * kElectronVolt;
  QuasiparticleRate qp({2.1e5, d, d, 0.52});
  qp.build_table(-6.0 * d, 6.0 * d);
  ASSERT_TRUE(qp.has_table());
  Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const double w = (2.0 * rng.uniform01() - 1.0) * 5.5 * d;
    const double direct = qp.rate(w);
    const double cached = qp.rate_cached(w);
    EXPECT_NEAR(cached, direct, 0.02 * direct + 1e-2);
  }
}

TEST(QpRate, TableFallbackOutsideRange) {
  const double d = 0.21e-3 * kElectronVolt;
  QuasiparticleRate qp({2.1e5, d, d, 0.52});
  qp.build_table(-2.0 * d, 2.0 * d);
  const double w = -10.0 * d;
  EXPECT_NEAR(qp.rate_cached(w), qp.rate(w), 1e-9 * qp.rate(w));
}

// ---- quasi-particle table build: bitwise oracle ------------------------------
// A sealed copy of the quasi-particle integral and rate exactly as they were
// before the build learned to skip work: out-of-line Fermi and BCS factors,
// no x < -37 Fermi branch, and the detailed-balance tail as exp * integral
// with no zero test. Both skips are only legal if they keep every bit of
// every table entry and every direct rate.
namespace oracle {

[[gnu::noinline]] double fermi(double e, double kt) noexcept {
  if (kt <= 0.0) {
    if (e < 0.0) return 1.0;
    if (e > 0.0) return 0.0;
    return 0.5;
  }
  const double x = e / kt;
  if (x > 700.0) return 0.0;
  if (x < -700.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

[[gnu::noinline]] double dos(double energy, double delta) noexcept {
  const double ae = std::fabs(energy);
  if (ae <= delta) return 0.0;
  return ae / std::sqrt(energy * energy - delta * delta);
}

constexpr int kGlPoints = 20;
constexpr double kGlNode[kGlPoints] = {
    -0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
    -0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
    -0.5108670019508271, -0.3737060887154195, -0.2277858511416451,
    -0.0765265211334973,  0.0765265211334973,  0.2277858511416451,
     0.3737060887154195,  0.5108670019508271,  0.6360536807265150,
     0.7463319064601508,  0.8391169718222188,  0.9122344282513259,
     0.9639719272779138,  0.9931285991850949};
constexpr double kGlWeight[kGlPoints] = {
    0.0176140071391521, 0.0406014298003869, 0.0626720483341091,
    0.0832767415767048, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183820, 0.1491729864726037,
    0.1527533871307258, 0.1527533871307258, 0.1491729864726037,
    0.1420961093183820, 0.1316886384491766, 0.1181945319615184,
    0.1019301198172404, 0.0832767415767048, 0.0626720483341091,
    0.0406014298003869, 0.0176140071391521};

template <typename Fn>
double integrate_sqrt_left(Fn&& fn, double a, double b) {
  const double tmax = std::sqrt(b - a);
  double acc = 0.0;
  for (int i = 0; i < kGlPoints; ++i) {
    const double t = 0.5 * tmax * (kGlNode[i] + 1.0);
    acc += kGlWeight[i] * 2.0 * t * fn(a + t * t);
  }
  return acc * 0.5 * tmax;
}

template <typename Fn>
double integrate_sqrt_right(Fn&& fn, double a, double b) {
  const double tmax = std::sqrt(b - a);
  double acc = 0.0;
  for (int i = 0; i < kGlPoints; ++i) {
    const double t = 0.5 * tmax * (kGlNode[i] + 1.0);
    acc += kGlWeight[i] * 2.0 * t * fn(b - t * t);
  }
  return acc * 0.5 * tmax;
}

template <typename Fn>
double integrate_segment(Fn&& fn, double a, double b) {
  if (!(b > a)) return 0.0;
  const double m = 0.5 * (a + b);
  return integrate_sqrt_left(fn, a, m) + integrate_sqrt_right(fn, m, b);
}

template <typename Fn>
double integrate_graded(Fn&& fn, double a, double b, double h0) {
  if (!(b > a)) return 0.0;
  h0 = std::min(h0, 0.5 * (b - a));
  const double mid = 0.5 * (a + b);
  double acc = 0.0;
  double lo = a, width = h0;
  while (lo < mid) {
    const double hi = std::min(lo + width, mid);
    acc += integrate_segment(fn, lo, hi);
    lo = hi;
    width *= 2.0;
  }
  double hi_edge = b;
  width = h0;
  while (hi_edge > mid) {
    const double lo_edge = std::max(hi_edge - width, mid);
    acc += integrate_segment(fn, lo_edge, hi_edge);
    hi_edge = lo_edge;
    width *= 2.0;
  }
  return acc;
}

double integral(const QuasiparticleRate::Params& p, double x) {
  const double kt = kBoltzmann * p.temperature;
  const double d1 = p.delta1;
  const double d2 = p.delta2;
  std::vector<double> bp = {-d1, d1, -x - d2, -x + d2, 0.0, -x};
  const double pad = 40.0 * kt;
  double lo = *std::min_element(bp.begin(), bp.end()) - pad;
  double hi = *std::max_element(bp.begin(), bp.end()) + pad;
  if (!(hi > lo)) return 0.0;
  bp.push_back(lo);
  bp.push_back(hi);
  std::sort(bp.begin(), bp.end());
  bp.erase(std::unique(bp.begin(), bp.end(),
                       [](double a, double b) { return std::abs(a - b) < 1e-30; }),
           bp.end());
  const auto integrand = [&](double e) {
    const double n1 = d1 > 0.0 ? dos(e, d1) : 1.0;
    if (n1 == 0.0) return 0.0;
    const double n2 = d2 > 0.0 ? dos(e + x, d2) : 1.0;
    if (n2 == 0.0) return 0.0;
    return n1 * n2 * (fermi(e, kt) * fermi(-(e + x), kt));
  };
  double h0 = kt > 0.0 ? kt : 0.0;
  if (h0 == 0.0 && d1 + d2 > 0.0) h0 = (d1 + d2) / 64.0;
  if (h0 == 0.0) h0 = (hi - lo) / 64.0;
  double acc = 0.0;
  for (std::size_t s = 0; s + 1 < bp.size(); ++s) {
    const double a = std::max(bp[s], lo);
    const double b = std::min(bp[s + 1], hi);
    if (b <= a) continue;
    acc += integrate_graded(integrand, a, b, h0);
  }
  return acc / (kElementaryCharge * kElementaryCharge * p.resistance);
}

double rate(const QuasiparticleRate::Params& p, double delta_w) {
  const double kt = kBoltzmann * p.temperature;
  const double x = -delta_w;
  if (kt > 0.0 && x < -40.0 * kt) return std::exp(x / kt) * integral(p, -x);
  return integral(p, x);
}

}  // namespace oracle

/// One (Delta, T, range) family of the superconducting devices the engine
/// tabulates, at unit resistance like the engine's shape table.
struct QpFamily {
  const char* name;
  double delta0_mev;
  double tc;
  double temperature;
  double half_range_mev;
};

constexpr QpFamily kQpFamilies[] = {
    // Fig. 1c at 50 mK: the default ranges of a +-0 V and a +-50 mV sweep.
    {"50 mK, +-259.8 meV", 0.2, 1.2, 0.05, 259.8},
    {"50 mK, +-359.8 meV", 0.2, 1.2, 0.05, 359.8},
    {"0.3 K", 0.2, 1.2, 0.3, 40.0},
    {"0.52 K, +-1.2 meV", 0.21, 1.2, 0.52, 1.2},
    {"T = 0", 0.2, 1.2, 0.0, 100.0},
    {"1.15 K", 0.2, 1.2, 1.15, 100.0},
    {"Delta0 = 1 meV, Tc = 9 K, 4.2 K", 1.0, 9.0, 4.2, 100.0},
};

QuasiparticleRate::Params qp_family_params(const QpFamily& f) {
  const double d = bcs_gap(f.delta0_mev * 1e-3 * kElectronVolt, f.tc, f.temperature);
  return {1.0, d, d, f.temperature};
}

TEST(QpRateOracle, TableEntriesAreBitwiseUnchanged) {
  for (const QpFamily& f : kQpFamilies) {
    const QuasiparticleRate::Params p = qp_family_params(f);
    const double half = f.half_range_mev * 1e-3 * kElectronVolt;
    QuasiparticleRate qp(p);
    qp.build_table(-half, half);
    std::vector<double> expect;
    for (const double w : qp.table_w()) expect.push_back(oracle::rate(p, w));
    ASSERT_EQ(qp.table_rate().size(), expect.size()) << f.name;
    EXPECT_EQ(std::memcmp(qp.table_rate().data(), expect.data(),
                          expect.size() * sizeof(double)),
              0)
        << f.name << ": " << expect.size() << "-point table changed";
  }
}

TEST(QpRateOracle, DirectRateIsBitwiseUnchangedOver800kT) {
  for (const QpFamily& f : kQpFamilies) {
    const QuasiparticleRate::Params p = qp_family_params(f);
    const QuasiparticleRate qp(p);
    // kT/2 steps over +-800 kT, then 0.05 kT steps across the window where
    // exp(x/kT) is subnormal (708-745 kT) and on to where it is exactly 0.
    // At T = 0 the grid is in units of Delta/64 instead.
    const double unit = f.temperature > 0.0 ? kBoltzmann * f.temperature
                                            : p.delta1 / 64.0;
    std::vector<double> ws;
    for (int i = -1600; i <= 1600; ++i) ws.push_back(0.5 * i * unit);
    for (int i = 0; i <= 1000; ++i) ws.push_back((700.0 + 0.05 * i) * unit);
    std::size_t bad = 0;
    double first_bad = 0.0;
    for (const double w : ws) {
      if (std::bit_cast<std::uint64_t>(qp.rate(w)) !=
              std::bit_cast<std::uint64_t>(oracle::rate(p, w)) &&
          bad++ == 0) {
        first_bad = w / unit;
      }
    }
    EXPECT_EQ(bad, 0u) << f.name << ": first at dw = " << first_bad
                       << (f.temperature > 0.0 ? " kT" : " Delta/64");
  }
}

// ---- Cooper pair ---------------------------------------------------------------

TEST(CooperPair, JosephsonEnergyAmbegaokarBaratoff) {
  const double d = 0.21e-3 * kElectronVolt;
  const double r = 2.1e5;
  // At T = 0: E_J = (Delta/2) R_Q/R_N.
  const double expected = 0.5 * d * kResistanceQuantumSc / r;
  EXPECT_NEAR(josephson_energy(r, d, 0.0), expected, 1e-9 * expected);
  // tanh factor reduces it at finite T.
  EXPECT_LT(josephson_energy(r, d, 1.0), expected);
  EXPECT_DOUBLE_EQ(josephson_energy(r, 0.0, 0.0), 0.0);
}

TEST(CooperPair, RateIsLorentzianPeakedAtResonance) {
  const double ej = 5e-25;
  const double eta = 6e-25;
  const double peak = cooper_pair_rate(0.0, ej, eta);
  EXPECT_NEAR(peak, ej * ej / (kHbar * eta), 1e-6 * peak);
  EXPECT_DOUBLE_EQ(cooper_pair_rate(1e-24, ej, eta),
                   cooper_pair_rate(-1e-24, ej, eta));
  // Half maximum at dw = eta/2.
  EXPECT_NEAR(cooper_pair_rate(eta / 2.0, ej, eta), 0.5 * peak, 1e-6 * peak);
  EXPECT_DOUBLE_EQ(cooper_pair_rate(0.0, 0.0, eta), 0.0);
}

TEST(CooperPair, DefaultBroadeningScale) {
  const double d = 0.21e-3 * kElectronVolt;
  const double r = 2.1e5;
  const double eta = default_cp_broadening(r, d);
  EXPECT_NEAR(eta, kHbar * d / (kE * kE * r), 1e-12 * eta);
  EXPECT_GT(eta, 0.0);
}

// ---- cotunneling ----------------------------------------------------------------

TEST(Cotunneling, ThermalFactorZeroTemperatureIsCubic) {
  EXPECT_DOUBLE_EQ(cotunneling_thermal_factor(2.0e-21, 0.0),
                   8.0e-63);
  EXPECT_DOUBLE_EQ(cotunneling_thermal_factor(-1e-21, 0.0), 0.0);
}

TEST(Cotunneling, ThermalFactorFiniteTemperatureAtZeroBias) {
  const double t = 1.0;
  const double kt = kKb * t;
  // S(0,T) = kT * (2 pi kT)^2.
  const double expected = kt * (2.0 * M_PI * kt) * (2.0 * M_PI * kt);
  EXPECT_NEAR(cotunneling_thermal_factor(0.0, t), expected, 1e-6 * expected);
}

TEST(Cotunneling, ThermalFactorDetailedBalance) {
  const double t = 1.0;
  const double kt = kKb * t;
  for (double x : {0.5 * kt, 2.0 * kt, 10.0 * kt}) {
    const double fwd = cotunneling_thermal_factor(x, t);
    const double bwd = cotunneling_thermal_factor(-x, t);
    EXPECT_NEAR(bwd / fwd, std::exp(-x / kt), 1e-9);
  }
}

TEST(Cotunneling, RateCubicInBias) {
  // T = 0, fixed intermediate energies: Gamma(2x)/Gamma(x) = 8.
  const double e1 = 2e-21, e2 = 2e-21, r = 1e6;
  const double g1 = cotunneling_rate(-1e-22, e1, e2, r, r, 0.0);
  const double g2 = cotunneling_rate(-2e-22, e1, e2, r, r, 0.0);
  EXPECT_NEAR(g2 / g1, 8.0, 1e-9);
}

TEST(Cotunneling, RateZeroWhenIntermediateAccessible) {
  EXPECT_DOUBLE_EQ(cotunneling_rate(-1e-22, -1e-23, 2e-21, 1e6, 1e6, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(cotunneling_rate(-1e-22, 2e-21, 0.0, 1e6, 1e6, 0.0), 0.0);
}

TEST(Cotunneling, PathEnumerationSet) {
  SetCircuit f;
  const auto paths = enumerate_cotunneling_paths(f.c);
  // One island, two junctions: two directed paths (src->drn and drn->src).
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.via, f.island);
    EXPECT_NE(p.from, p.to);
  }
}

TEST(Cotunneling, PathEnumerationDoubleDot) {
  Circuit c;
  const NodeId l = c.add_external();
  const NodeId r = c.add_external();
  const NodeId i1 = c.add_island();
  const NodeId i2 = c.add_island();
  c.add_junction(l, i1, 1e6, 1e-18);
  c.add_junction(i1, i2, 1e6, 1e-18);
  c.add_junction(i2, r, 1e6, 1e-18);
  const auto paths = enumerate_cotunneling_paths(c);
  // Via i1: l<->i2 (2 paths); via i2: i1<->r (2 paths).
  EXPECT_EQ(paths.size(), 4u);
}

TEST(Cotunneling, ParallelJunctionsGiveNoPath) {
  Circuit c;
  const NodeId l = c.add_external();
  const NodeId i = c.add_island();
  c.add_junction(l, i, 1e6, 1e-18);
  c.add_junction(l, i, 1e6, 1e-18);
  EXPECT_TRUE(enumerate_cotunneling_paths(c).empty());
}

}  // namespace
}  // namespace semsim
