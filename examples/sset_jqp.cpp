// Superconducting SET example: Josephson quasi-particle (JQP) resonance.
//
//   $ ./sset_jqp
//
// Builds the Fig. 5 superconducting SET, holds the gate at a voltage that
// puts the Cooper-pair resonance inside the sub-gap region, and sweeps the
// bias across it. The JQP cycle — one 2e Cooper-pair tunnel through one
// junction completed by two quasi-particle tunnels through the other
// (paper Fig. 2) — appears as a current peak well below the quasi-particle
// threshold. Nothing about the peak is hard-coded: it emerges from the
// competition of the two channels in the Monte-Carlo engine.
#include <cmath>
#include <cstdio>

#include "analysis/current.h"
#include "base/constants.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "physics/bcs.h"

using namespace semsim;

int main() {
  const double temperature = 0.52;  // K
  const double tc = 1.2;            // K
  // Delta0 chosen so Delta(0.52 K) = 0.21 meV, the value the paper quotes.
  const double delta0 =
      0.21e-3 * kElectronVolt / std::tanh(1.74 * std::sqrt(tc / temperature - 1.0));

  // R = 210 kOhm, C = 110 aF, Cg = 14 aF and the experiment's Qb = 0.65 e.
  const SetTransistor set = make_set(
      0.0, 0.0, 0.008,
      {2.1e5, 110e-18, 14e-18, 0.65, SuperconductingParams{delta0, tc}});

  EngineOptions o;
  o.temperature = temperature;
  o.seed = 7;
  o.qp_table_half_range = 20.0 * bcs_gap(delta0, tc, temperature);
  Engine engine(set.c, o);

  std::printf("# SSET bias sweep at Vg = 8 mV; Delta(T) = %.3f meV\n",
              bcs_gap(delta0, tc, temperature) / kMilliElectronVolt);
  std::printf("# Vbias [mV]   I [A]\n");
  double peak_i = 0.0, peak_v = 0.0;
  for (double vb = 0.1e-3; vb <= 1.4e-3; vb += 0.05e-3) {
    engine.set_dc_source(set.src, vb);
    engine.rebase_time();
    const CurrentEstimate est = measure_mean_current(
        engine, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{2000, 20000, 6});
    std::printf("%7.3f    %+.4e\n", 1e3 * vb, est.mean);
    // Search the sub-gap region only: above ~0.9 mV the quasi-particle
    // threshold ramp takes over.
    if (vb < 0.9e-3 && std::abs(est.mean) > std::abs(peak_i)) {
      peak_i = est.mean;
      peak_v = vb;
    }
  }
  std::printf("# JQP peak: %.3e A at Vbias = %.3f mV (sub-gap resonance,\n"
              "# on the analytic Cooper-pair resonance at 0.451 mV)\n",
              peak_i, 1e3 * peak_v);
  return 0;
}
