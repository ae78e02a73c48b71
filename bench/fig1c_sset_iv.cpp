// Fig. 1c — I-V of the superconducting SET at T = 50 mK with the same
// electrical parameters as Fig. 1b and Delta(0) = 0.2 meV, Tc = 1.2 K.
//
// Expected shape: the suppressed-current region is ENLARGED relative to the
// normal SET by the superconducting gap (quasi-particle transport needs an
// extra 2*Delta per junction: threshold ~ e/C_sigma + 4*Delta/e), with
// sub-gap structure from resonant Cooper-pair (JQP) processes.
#include <cstdio>

#include "analysis/current.h"
#include "analysis/sweep.h"
#include "base/constants.h"
#include "bench_util.h"
#include "core/engine.h"
#include "logic/devices.h"

using namespace semsim;

namespace {

std::vector<IvPoint> run_curve(bool superconducting, double vg, double step,
                               std::uint64_t events,
                               const ParallelExecutor& exec,
                               RunCounters& counters) {
  SetElements elements;
  if (superconducting) elements.superconducting = kFig1cMaterial;
  const SetTransistor set = make_set(0.0, 0.0, vg, elements);

  EngineOptions o;
  o.temperature = 0.05;
  o.qp_table_half_range = 40.0 * 0.2e-3 * kElectronVolt;

  IvSweepConfig cfg;
  cfg.swept = set.src;
  cfg.mirror = set.drn;
  cfg.from = -0.02;
  cfg.to = 0.02;
  cfg.step = step / 2.0;
  cfg.probes = {{0, 1.0}, {1, 1.0}};
  cfg.measure = CurrentMeasureConfig{events / 10, events, 8};

  // Five points per unit (the chunking is part of the sweep's identity, so
  // it keeps the recorded curves); every unit engine reads the sweep's one
  // quasi-particle table.
  ParallelSweepConfig par;
  par.base_seed = 42;
  par.points_per_unit = 5;
  return run_iv_sweep(set.c, o, cfg, exec, par, &counters);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const double step = args.full ? 0.001 : 0.002;
  const std::uint64_t events = args.full ? 60000 : 15000;
  const std::vector<double> gates = {0.00, 0.01, 0.02, 0.03};

  std::printf("== Fig. 1c: SSET I-V at T = 50 mK, Delta(0)=0.2meV, Tc=1.2K ==\n");
  std::printf("# expected qp threshold at Vg=0: e/C + 4 Delta/e = %.1f mV\n",
              1e3 * (kElementaryCharge / 5e-18 +
                     4.0 * 0.2e-3));

  const ParallelExecutor exec(args.threads);
  RunCounters counters;
  std::vector<std::vector<IvPoint>> curves;
  for (const double vg : gates) {
    curves.push_back(run_curve(true, vg, step, events, exec, counters));
  }
  // A normal-state reference curve at the same temperature for the
  // gap-enlargement comparison.
  const std::vector<IvPoint> normal =
      run_curve(false, 0.0, step, events, exec, counters);
  bench::report_counters("fig1c sweeps", counters);

  TableWriter table({"vds_V", "i_vg0_A", "i_vg10mV_A", "i_vg20mV_A",
                     "i_vg30mV_A", "i_normal_vg0_A"});
  table.add_comment("Fig. 1c reproduction: SSET I-V, T = 50 mK");
  table.add_comment("same SET as Fig. 1b + Delta(0K)=0.2meV, Tc=1.2K");
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    table.add_row({2.0 * curves[0][i].bias, curves[0][i].current,
                   curves[1][i].current, curves[2][i].current,
                   curves[3][i].current, normal[i].current});
  }
  bench::emit(args, "fig1c_sset_iv", table);

  // Gap-enlargement check with a fine sweep across the threshold region:
  // the suppressed region extends by 4*Delta/e = 0.8 mV for this material.
  auto fine_threshold = [&](bool sc) {
    SetElements elements;
    if (sc) elements.superconducting = kFig1cMaterial;
    const SetTransistor set = make_set(0.0, 0.0, 0.0, elements);
    EngineOptions o;
    o.temperature = 0.05;
    o.seed = 9;
    o.qp_table_half_range = 40.0 * 0.2e-3 * kElectronVolt;
    Engine engine(set.c, o);
    for (double v_half = 0.0150; v_half <= 0.0175; v_half += 0.0001) {
      engine.set_dc_source(set.src, v_half);
      engine.set_dc_source(set.drn, -v_half);
      engine.rebase_time();
      const CurrentEstimate est = measure_mean_current(
          engine, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{500, 4000, 4});
      if (std::abs(est.mean) > 1e-10) return 2.0 * v_half;
    }
    return 0.036;
  };
  const double th_normal = fine_threshold(false);
  const double th_sset = fine_threshold(true);
  std::printf("check: threshold normal = %.2f mV, SSET = %.2f mV, "
              "shift = %.2f mV (analytic 4*Delta/e = %.2f mV)\n",
              1e3 * th_normal, 1e3 * th_sset, 1e3 * (th_sset - th_normal),
              4.0 * 0.2);
  return 0;
}
