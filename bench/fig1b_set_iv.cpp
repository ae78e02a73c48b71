// Fig. 1b — I-V characteristics of the paper's SET at T = 5 K for gate
// voltages 0 .. 30 mV: R1 = R2 = 1 MOhm, C1 = C2 = 1 aF, Cg = 3 aF,
// symmetric bias sweep of Vds.
//
// Expected shape (all reproduced): Coulomb-blockade suppression around
// Vds = 0 extending to |Vds| ~ e/C_sigma = 32 mV at Vg = 0, shrinking as the
// gate approaches the degeneracy point, with the overall staircase-free
// quasi-linear rise above threshold.
#include <cmath>
#include <cstdio>

#include "analysis/current.h"
#include "analysis/sweep.h"
#include "base/constants.h"
#include "bench_util.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "master/master_equation.h"

using namespace semsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const double step = args.full ? 0.001 : 0.002;
  const std::uint64_t events = args.full ? 100000 : 20000;
  const std::vector<double> gates = {0.00, 0.01, 0.02, 0.03};

  std::printf("== Fig. 1b: SET I-V at T = 5 K (paper parameters) ==\n");
  std::printf("# blockade threshold (analytic): e/C_sigma = %.1f mV at Vg = 0\n",
              1e3 * kElementaryCharge / 5e-18);

  // One current column per gate voltage. Each curve runs through the
  // deterministic parallel sweep: the columns are identical for every
  // --threads value (only the wall time changes).
  const ParallelExecutor exec(args.threads);
  RunCounters counters;
  std::vector<std::vector<IvPoint>> curves;
  std::size_t curve_index = 0;
  for (const double vg : gates) {
    const SetTransistor set = make_set(0.0, 0.0, vg);

    EngineOptions o;
    o.temperature = 5.0;

    IvSweepConfig cfg;
    cfg.swept = set.src;
    cfg.mirror = set.drn;
    cfg.from = -0.02;  // Vds = 2 * v_half spans -40 .. +40 mV
    cfg.to = 0.02;
    cfg.step = step / 2.0;
    cfg.probes = {{0, 1.0}, {1, 1.0}};
    cfg.measure = CurrentMeasureConfig{events / 10, events, 8};

    ParallelSweepConfig par;
    par.base_seed = args.seed > 0 ? args.seed : 42;
    par.points_per_unit = 4;
    // --checkpoint=FILE: one checkpoint file per gate curve (sweep chunks
    // are the units inside each file).
    CheckpointConfig ckpt;
    if (!args.checkpoint.empty()) {
      ckpt.path = args.checkpoint + "." + std::to_string(curve_index);
      ckpt.fingerprint = fnv1a64("fig1b curve " + std::to_string(curve_index));
    }
    curves.push_back(run_iv_sweep(set.c, o, cfg, exec, par, &counters, ckpt));
    ++curve_index;
  }
  bench::report_counters("fig1b sweeps", counters);

  TableWriter table({"vds_V", "i_vg0_A", "i_vg10mV_A", "i_vg20mV_A", "i_vg30mV_A"});
  table.add_comment("Fig. 1b reproduction: SET I-V, T = 5 K");
  table.add_comment("R1=R2=1MOhm C1=C2=1aF Cg=3aF, symmetric bias");
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    table.add_row({2.0 * curves[0][i].bias, curves[0][i].current,
                   curves[1][i].current, curves[2][i].current,
                   curves[3][i].current});
  }
  bench::emit(args, "fig1b_set_iv", table);

  // Quick shape assertions printed for EXPERIMENTS.md.
  const auto& c0 = curves[0];
  const std::size_t mid = c0.size() / 2;
  const std::size_t hi = c0.size() - 1;
  std::printf("check: |I(0)| = %.3e A << |I(+40mV)| = %.3e A  [blockade]\n",
              std::abs(c0[mid].current), std::abs(c0[hi].current));
  std::printf("check: I(-40mV) = %.3e ~ -I(+40mV) = %.3e  [antisymmetry]\n",
              c0[0].current, -c0[hi].current);

  // Cross-validation against the (noise-free) master-equation solver at a
  // few bias points — the "second method" of the paper's Sec. I.
  std::printf("Monte-Carlo vs master equation (Vg = 0):\n");
  for (const double v_half : {0.01, 0.015, 0.02}) {
    const SetTransistor set = make_set(v_half, -v_half);
    EngineOptions o;
    o.temperature = 5.0;
    MasterEquationSolver me(set.c, o);
    // Interpolate the Monte-Carlo curve at this bias point.
    double i_mc = 0.0;
    for (const IvPoint& p : curves[0]) {
      if (std::abs(2.0 * p.bias - 2.0 * v_half) < 1e-6) i_mc = p.current;
    }
    std::printf("  Vds=%.0f mV: MC %.4e A vs ME %.4e A (ratio %.3f)\n",
                2e3 * v_half, i_mc, me.junction_current(0),
                i_mc / me.junction_current(0));
  }
  return 0;
}
