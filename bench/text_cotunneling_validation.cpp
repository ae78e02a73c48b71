// Sec. IV-A (text) — cotunneling accuracy validation.
//
// The paper validates cotunneling "against analytic approximations and SIMON
// results ... excellent agreement was observed". SIMON is unavailable
// offline, so the stronger oracle is used: deep in Coulomb blockade at
// T = 0 the Monte-Carlo process is pure Poisson cotunneling whose rate has
// the closed form of physics/cotunneling.h, and the I-V must follow the
// classic I ~ V^3 law (Averin-Nazarov).
#include <cmath>
#include <cstdio>

#include "analysis/current.h"
#include "base/constants.h"
#include "bench_util.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "physics/cotunneling.h"

using namespace semsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::uint64_t events = args.full ? 60000 : 15000;
  const double c_sigma = 5e-18;
  const double u = kElementaryCharge * kElementaryCharge / (2.0 * c_sigma);

  std::printf("== Cotunneling validation: blockaded SET at T = 0 ==\n");
  TableWriter table({"vds_V", "i_mc_A", "i_analytic_A", "ratio"});
  table.add_comment("MC cotunneling current vs closed-form rate; deep blockade, T = 0");

  std::vector<double> log_v, log_i;
  for (double v_half = 0.001; v_half <= 0.0071; v_half += 0.001) {
    const SetTransistor set = make_set(v_half, -v_half);
    EngineOptions o;
    o.temperature = 0.0;
    o.cotunneling = true;
    o.seed = 5;
    Engine e(set.c, o);
    const CurrentEstimate est = measure_mean_current(
        e, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{events / 20, events, 6});

    const double e1 = -kElementaryCharge * v_half + u;
    const double dw = -kElementaryCharge * 2.0 * v_half;
    const double analytic =
        kElementaryCharge * cotunneling_rate(dw, e1, e1, 1e6, 1e6, 0.0);

    table.add_row({2.0 * v_half, est.mean, analytic, est.mean / analytic});
    log_v.push_back(std::log(2.0 * v_half));
    log_i.push_back(std::log(std::abs(est.mean)));
  }
  bench::emit(args, "cotunneling_validation", table);

  // Least-squares slope of log I vs log V: the V^3 law (exact exponent is
  // slightly above 3 because the intermediate energies soften with bias).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(log_v.size());
  for (std::size_t i = 0; i < log_v.size(); ++i) {
    sx += log_v[i];
    sy += log_i[i];
    sxx += log_v[i] * log_v[i];
    sxy += log_v[i] * log_i[i];
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  std::printf("log-log slope of the blockade I-V: %.3f (Averin-Nazarov: ~3)\n",
              slope);
  return 0;
}
