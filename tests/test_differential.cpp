// Differential lockdown of --fast-rates on the adaptive path.
//
// The fast thermal kernels (physics/fast_expm1.h) promise a <= 1e-12
// relative error against the libm-exact kernels. These tests check that
// promise where it actually matters: on the ΔW population a REAL adaptive
// run produces (harvested from the event stream, not synthetic uniforms),
// and on the physics the user reads out — the I–V curve — where fast and
// exact runs must be statistically indistinguishable even though their
// trajectories diverge sample by sample.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/current.h"
#include "analysis/sweep.h"
#include "base/constants.h"
#include "core/engine.h"
#include "core/options.h"
#include "netlist/circuit.h"
#include "netlist/waveform.h"
#include "physics/cotunneling.h"
#include "physics/rates.h"

namespace semsim {
namespace {

/// The golden-suite SET: two junctions, one island, one gate capacitor.
Circuit make_set(double v_src, double v_drn, double v_gate) {
  Circuit c;
  const NodeId src = c.add_external("src");
  const NodeId drn = c.add_external("drn");
  const NodeId gate = c.add_external("gate");
  const NodeId island = c.add_island("island");
  c.add_junction(src, island, 1e6, 1e-18);
  c.add_junction(island, drn, 1e6, 1e-18);
  c.add_capacitor(gate, island, 3e-18);
  c.set_source(src, Waveform::dc(v_src));
  c.set_source(drn, Waveform::dc(v_drn));
  c.set_source(gate, Waveform::dc(v_gate));
  return c;
}

Circuit make_chain(int stages, double bias) {
  Circuit c;
  const NodeId vp = c.add_external("vp");
  const NodeId vn = c.add_external("vn");
  c.set_source(vp, Waveform::dc(bias));
  c.set_source(vn, Waveform::dc(-bias));
  for (int s = 0; s < stages; ++s) {
    const NodeId i = c.add_island();
    c.add_junction(vp, i, 1e6, 1e-18);
    c.add_junction(i, vn, 1e6, 1e-18);
    c.add_capacitor(i, Circuit::kGroundNode, 20e-18);
  }
  return c;
}

TEST(FastRatesDifferential, HarvestedDeltaWRatesWithinContract) {
  // Harvest the ΔW values an exact adaptive run at 4.2 K visits — every
  // junction, after every event, reconstructed from the live island
  // potentials exactly as the engine's kernel computes them — and check the
  // fast kernel against the exact one on that population. This is the
  // paper-relevant argument distribution: sharply bimodal (blockade vs
  // conducting), nothing like uniform sampling.
  const Circuit c = make_set(0.02, -0.02, 0.011);
  EngineOptions o;
  o.temperature = 4.2;
  o.seed = 31;
  Engine engine(c, o);
  const std::size_t j_count = c.junction_count();

  std::vector<double> harvested;
  engine.set_event_callback([&](const Engine& e, const Event&) {
    const double ec = kElementaryCharge;
    for (std::size_t j = 0; j < j_count; ++j) {
      const Junction& jn = c.junction(j);
      const double dv = e.node_voltage(jn.b) - e.node_voltage(jn.a);
      const double u = e.rate_calculator().charging_term(j);
      harvested.push_back(-ec * dv + u);
      harvested.push_back(ec * dv + u);
    }
  });
  ASSERT_EQ(engine.run_events(3000), 3000u);
  ASSERT_EQ(harvested.size(), 3000 * 2 * j_count);

  const double kt = engine.rate_calculator().kt();
  std::vector<double> g(harvested.size());
  for (std::size_t i = 0; i < harvested.size(); ++i) {
    g[i] = engine.rate_calculator()
               .channel_conductance()[i % (2 * j_count)];
  }
  std::vector<double> exact(harvested.size()), fast(harvested.size());
  tunnel_rates_batch(harvested.data(), g.data(), kt, exact.data(),
                     harvested.size());
  tunnel_rates_batch_fast(harvested.data(), g.data(), kt, fast.data(),
                          harvested.size());
  for (std::size_t i = 0; i < harvested.size(); ++i) {
    ASSERT_LE(std::abs(fast[i] - exact[i]), 1e-12 * exact[i])
        << "channel sample " << i << " dW " << harvested[i];
  }
}

TEST(FastRatesDifferential, ZeroTemperatureTrajectoryBitwiseIdentical) {
  // At T = 0 the thermal branch is never taken, so --fast-rates must be a
  // strict no-op: the full adaptive event sequence is bitwise identical.
  const Circuit c = make_chain(8, 0.012);
  EngineOptions exact_o;
  exact_o.temperature = 0.0;
  exact_o.seed = 77;
  EngineOptions fast_o = exact_o;
  fast_o.fast_rates = true;

  Engine a(c, exact_o);
  Engine b(c, fast_o);
  Event ea, eb;
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(a.step(&ea));
    ASSERT_TRUE(b.step(&eb));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ea.time),
              std::bit_cast<std::uint64_t>(eb.time))
        << "event " << i;
    ASSERT_EQ(ea.index, eb.index) << "event " << i;
    ASSERT_EQ(ea.from, eb.from) << "event " << i;
  }
}

TEST(FastRatesDifferential, AdaptiveIvCurveStatisticallyIndistinguishable) {
  // Fast and exact runs follow different microscopic trajectories (each
  // rate differs in the last bits, so waiting times and selections drift
  // apart), but they sample the same physics: every bias point's currents
  // must agree within combined statistical error. A systematic fast-kernel
  // bias — the failure this guards against — shows up as a coherent shift
  // across points far exceeding 5 sigma.
  const Circuit c = make_set(0.0, 0.0, 0.009);
  EngineOptions o;
  o.temperature = 4.2;
  o.seed = 5;

  IvSweepConfig cfg;
  cfg.swept = 1;   // src (node 0 is ground)
  cfg.mirror = 2;  // drn driven at -V
  cfg.from = 0.004;
  cfg.to = 0.028;
  cfg.step = 0.004;
  cfg.probes = {{0, 1.0}, {1, -1.0}};
  cfg.measure.warmup_events = 500;
  cfg.measure.measure_events = 6000;
  cfg.measure.blocks = 8;

  // One chunk of all seven points: the serial, warm-started sweep.
  const ParallelSweepConfig serial{o.seed, 7};
  const std::vector<IvPoint> exact_iv =
      run_iv_sweep(c, o, cfg, ParallelExecutor(1), serial);

  EngineOptions fast_o = o;
  fast_o.fast_rates = true;
  const std::vector<IvPoint> fast_iv =
      run_iv_sweep(c, fast_o, cfg, ParallelExecutor(1), serial);

  ASSERT_EQ(exact_iv.size(), fast_iv.size());
  ASSERT_GE(exact_iv.size(), 6u);
  for (std::size_t p = 0; p < exact_iv.size(); ++p) {
    const double diff = std::abs(fast_iv[p].current - exact_iv[p].current);
    const double sigma = std::sqrt(
        exact_iv[p].stderr_mean * exact_iv[p].stderr_mean +
        fast_iv[p].stderr_mean * fast_iv[p].stderr_mean);
    EXPECT_LE(diff, 5.0 * sigma + 1e-18)
        << "bias " << exact_iv[p].bias << ": exact " << exact_iv[p].current
        << " fast " << fast_iv[p].current << " sigma " << sigma;
  }
}

TEST(FastRatesDifferential, CotunnelingRateFastWithinContract) {
  // cotunneling_rate_fast extends the <= 1e-12 contract to the second-order
  // channel (the thermal factor is the only fast-path substitution; the
  // T = 0 x^3 branch is byte-identical). Sweep the physically reachable
  // argument region: dw_total both signs across decades, intermediate
  // energies positive (the kernel is only called with e1, e2 > 0).
  for (double temperature : {0.3, 1.3, 4.2}) {
    for (double dw_mag_exp = -26; dw_mag_exp <= -19; dw_mag_exp += 0.5) {
      for (const double sign : {-1.0, 1.0}) {
        const double dw = sign * std::pow(10.0, dw_mag_exp);
        const double e1 = 3e-22, e2 = 7e-23;
        const double exact = cotunneling_rate(dw, e1, e2, 1e6, 2e6,
                                              temperature);
        const double fast = cotunneling_rate_fast(dw, e1, e2, 1e6, 2e6,
                                                  temperature);
        ASSERT_LE(std::abs(fast - exact), 1e-12 * std::abs(exact))
            << "T " << temperature << " dw " << dw;
      }
    }
    // T = 0 limit: byte-identical by construction.
    const double dw0 = -2e-22;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                  cotunneling_rate(dw0, 3e-22, 7e-23, 1e6, 2e6, 0.0)),
              std::bit_cast<std::uint64_t>(
                  cotunneling_rate_fast(dw0, 3e-22, 7e-23, 1e6, 2e6, 0.0)));
  }
}

TEST(FastRatesDifferential, CotunnelingIvStatisticallyIndistinguishable) {
  // Same indistinguishability bar with the cotunneling channels active —
  // this is the configuration the fast-rates extension newly touches.
  const Circuit c = make_set(0.0, 0.0, 0.002);
  EngineOptions o;
  o.temperature = 1.3;
  o.cotunneling = true;
  o.seed = 13;

  IvSweepConfig cfg;
  cfg.swept = 1;  // src (node 0 is ground)
  cfg.mirror = 2;
  cfg.from = 0.006;
  cfg.to = 0.022;
  cfg.step = 0.008;
  cfg.probes = {{0, 1.0}, {1, -1.0}};
  cfg.measure.warmup_events = 400;
  cfg.measure.measure_events = 4000;
  cfg.measure.blocks = 8;

  const ParallelSweepConfig serial{o.seed, 3};  // one chunk, three points
  const std::vector<IvPoint> exact_iv =
      run_iv_sweep(c, o, cfg, ParallelExecutor(1), serial);
  EngineOptions fast_o = o;
  fast_o.fast_rates = true;
  const std::vector<IvPoint> fast_iv =
      run_iv_sweep(c, fast_o, cfg, ParallelExecutor(1), serial);

  ASSERT_EQ(exact_iv.size(), fast_iv.size());
  for (std::size_t p = 0; p < exact_iv.size(); ++p) {
    const double diff = std::abs(fast_iv[p].current - exact_iv[p].current);
    const double sigma = std::sqrt(
        exact_iv[p].stderr_mean * exact_iv[p].stderr_mean +
        fast_iv[p].stderr_mean * fast_iv[p].stderr_mean);
    EXPECT_LE(diff, 5.0 * sigma + 1e-18)
        << "bias " << exact_iv[p].bias;
  }
}

}  // namespace
}  // namespace semsim
