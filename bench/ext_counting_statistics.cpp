// Extension — full counting statistics of SET transport.
//
// Not a paper figure: this exercises a capability unique to the Monte-Carlo
// method among the paper's three approaches (SPICE and the master equation
// only produce mean currents). The Fano factor of the transmitted charge is
// swept along the gate axis at fixed bias: at the degeneracy point the
// symmetric two-state cycle suppresses shot noise to F = 1/2; toward the
// blockade edges one rate dominates and F -> 1 (Poissonian); deep in
// blockade with cotunneling enabled the second-order process is Poissonian
// with F ~ 1 as well.
#include <cmath>
#include <cstdio>

#include "analysis/noise.h"
#include "base/constants.h"
#include "bench_util.h"
#include "core/engine.h"
#include "logic/devices.h"

using namespace semsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const unsigned windows = args.full ? 1500 : 400;
  const double vg_deg = kElementaryCharge / (2.0 * 5e-18) / 0.6;  // 26.7 mV

  std::printf("== Extension: shot-noise (Fano factor) along the gate axis ==\n");
  std::printf("# SET at T = 0, Vds = 10 mV; degeneracy gate = %.2f mV\n",
              1e3 * vg_deg);

  TableWriter table({"vgate_V", "fano", "current_A"});
  table.add_comment("two-state window around the degeneracy point; F = 1/2 at");
  table.add_comment("the symmetric point, -> 1 toward the conduction edges");
  for (double frac = 0.70; frac <= 1.301; frac += args.full ? 0.025 : 0.05) {
    const double vg = frac * vg_deg;
    const SetTransistor set = make_set(0.005, -0.005, vg);
    EngineOptions o;
    o.temperature = 0.0;
    o.seed = 5;
    Engine e(set.c, o);
    if (e.total_rate() <= 0.0) continue;  // outside the conducting window
    FanoConfig cfg;
    cfg.junction = 0;
    cfg.window_time = 120.0 / e.total_rate();
    cfg.windows = windows;
    const FanoEstimate est = measure_fano(e, cfg);
    if (est.windows < 2 || std::abs(est.mean_per_window) < 1.0) continue;
    table.add_row({vg, est.fano, est.current});
    std::printf("Vg = %6.2f mV: F = %.3f, I = %.3e A\n", 1e3 * vg, est.fano,
                est.current);
  }
  bench::emit(args, "ext_counting_statistics", table);

  // Cotunneling reference point: Poissonian second-order transport.
  const SetTransistor set = make_set(0.005, -0.005);
  EngineOptions o;
  o.temperature = 0.0;
  o.cotunneling = true;
  o.seed = 5;
  Engine e(set.c, o);
  FanoConfig cfg;
  cfg.junction = 0;
  cfg.window_time = 40.0 / e.total_rate();
  cfg.windows = windows;
  const FanoEstimate est = measure_fano(e, cfg);
  std::printf("cotunneling (deep blockade): F = %.3f (Poisson: 1.0)\n",
              est.fano);
  return 0;
}
