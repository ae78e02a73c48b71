// Cotunneling example: transport deep inside the Coulomb blockade.
//
//   $ ./cotunneling_blockade
//
// At T = 0 and |Vds| far below threshold, sequential tunneling is
// impossible: every channel of the orthodox model is closed. With the
// `cotunneling` option the engine adds second-order channels in which an
// electron crosses both junctions coherently (paper Sec. II), and a small
// I ~ V^3 current flows. The example prints the same device with and
// without cotunneling enabled.
#include <cstdio>

#include "analysis/current.h"
#include "core/engine.h"
#include "logic/devices.h"

using namespace semsim;

int main() {
  std::printf("# Vds [mV]  I_sequential [A]  I_with_cotunneling [A]\n");
  for (double v_half = 0.001; v_half <= 0.0081; v_half += 0.001) {
    const SetTransistor set = make_set(v_half, -v_half);
    // Sequential only: stuck at T = 0 in blockade -> exactly zero current.
    EngineOptions seq;
    seq.temperature = 0.0;
    Engine e_seq(set.c, seq);
    const double i_seq = e_seq.total_rate() == 0.0 ? 0.0 : -1.0;

    EngineOptions cot;
    cot.temperature = 0.0;
    cot.cotunneling = true;
    cot.seed = 3;
    Engine e_cot(set.c, cot);
    const CurrentEstimate est = measure_mean_current(
        e_cot, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{500, 10000, 6});

    std::printf("  %5.1f      %.1e           %.4e\n", 2e3 * v_half, i_seq,
                est.mean);
  }
  std::printf("# doubling Vds multiplies the current by ~8 (I ~ V^3,\n"
              "# Averin-Nazarov inelastic cotunneling).\n");
  return 0;
}
