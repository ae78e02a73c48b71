// Sec. IV-A (text) — JQP quantitative validation.
//
// The paper compares JQP peaks against the Nakamura et al. experiment and
// reports "quantitative agreement". Offline, the oracle is the theory the
// JQP cycle is built from: the bench sweeps bias across the Cooper-pair
// resonance, locates the current peak, and compares (a) its position against
// the analytic dW_cp = 0 bias and (b) its height against the golden-rule
// cycle estimate — the peak current of a (1 Cooper pair + 2 quasi-particles)
// cycle is bounded by 2e times the slower of the resonant CP rate and the
// quasi-particle escape rate.
#include <cmath>
#include <cstdio>

#include "analysis/current.h"
#include "base/constants.h"
#include "bench_util.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "netlist/electrostatics.h"
#include "physics/bcs.h"
#include "physics/cooper_pair.h"

using namespace semsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::uint64_t events = args.full ? 80000 : 20000;

  // Fig. 5 device at a fixed gate voltage that puts the JQP resonance
  // inside the sweep window.
  const double temp = 0.52, tc = 1.2, rj = 2.1e5;
  const double cj = 110e-18, cg = 14e-18, qb = 0.65, vg = 0.008;
  const double delta0 =
      0.21e-3 * kElectronVolt / std::tanh(1.74 * std::sqrt(tc / temp - 1.0));
  const double gap = bcs_gap(delta0, tc, temp);

  const SetTransistor set = make_set(
      0.0, 0.0, vg, {rj, cj, cg, qb, SuperconductingParams{delta0, tc}});

  // Analytic resonance bias (dW_cp = 0 through the source junction, n = 0).
  const ElectrostaticModel m(set.c);
  const double e = kElementaryCharge;
  const double kappa = m.kappa_node(set.island, set.island);
  const double u = 0.5 * e * e * kappa;
  const double s_src = m.source_gain()(0, 0);
  const double s_gate = m.source_gain()(0, 2);
  const double v_resonance =
      (2.0 * u / e - kappa * e * qb - s_gate * vg) / (s_src - 1.0);
  const double ej = josephson_energy(rj, gap, temp);
  const double eta = default_cp_broadening(rj, gap);
  const double cp_rate_res = cooper_pair_rate(0.0, ej, eta);

  std::printf("== JQP validation: peak position and magnitude ==\n");
  std::printf("# E_J = %.3f ueV, eta = %.3f ueV, resonant CP rate = %.3e /s\n",
              1e6 * ej / kElectronVolt, 1e6 * eta / kElectronVolt, cp_rate_res);
  std::printf("# analytic resonance at V_bias = %.4f mV\n", 1e3 * v_resonance);

  EngineOptions o;
  o.temperature = temp;
  o.seed = 21;
  o.qp_table_half_range = 20.0 * gap;
  Engine engine(set.c, o);

  TableWriter table({"vbias_V", "i_A"});
  table.add_comment("bias sweep across the JQP resonance, Vg = 8 mV");
  double peak_i = 0.0, peak_v = 0.0;
  for (double vb = std::max(0.1e-3, v_resonance - 0.4e-3);
       vb <= v_resonance + 0.4e-3; vb += args.full ? 0.02e-3 : 0.04e-3) {
    engine.set_dc_source(set.src, vb);
    engine.rebase_time();
    const CurrentEstimate est = measure_mean_current(
        engine, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{events / 10, events, 6});
    table.add_row({vb, est.mean});
    if (std::abs(est.mean) > std::abs(peak_i)) {
      peak_i = est.mean;
      peak_v = vb;
    }
  }
  bench::emit(args, "jqp_validation", table);

  std::printf("measured peak: I = %.3e A at V_bias = %.4f mV\n", peak_i,
              1e3 * peak_v);
  std::printf("position check: measured %.4f mV vs analytic %.4f mV "
              "(diff %.1f%% of resonance bias)\n",
              1e3 * peak_v, 1e3 * v_resonance,
              100.0 * std::abs(peak_v - v_resonance) / v_resonance);
  // The cycle current is 2e / (1/G_cp + 1/G_qp1 + 1/G_qp2); at these
  // sub-millivolt biases the quasi-particle escapes are thermally assisted
  // (the Manninen experiment's point), so the peak sits below the pure
  // Cooper-pair ceiling by the qp bottleneck factor.
  const double cycles = peak_i / (2.0 * e);
  std::printf("magnitude check: peak %.3e A = %.3e cycles/s; CP-resonance "
              "ceiling 2e*Gamma_cp(0) = %.3e A; implied qp bottleneck "
              "%.3e /s\n",
              peak_i, cycles, 2.0 * e * cp_rate_res,
              1.0 / std::max(1e-30, 1.0 / cycles - 1.0 / cp_rate_res));
  return 0;
}
