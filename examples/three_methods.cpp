// The paper's three simulation methods side by side on one device.
//
//   $ ./three_methods
//
// Sec. I of the paper compares SPICE modeling, the master-equation approach
// and Monte-Carlo simulation. This repository implements all three; the
// example runs them on the same SET bias point and prints the same current
// three ways:
//   * Monte-Carlo (the paper's choice, with the adaptive solver),
//   * master equation (exact expectation over the enumerated charge states),
//   * the SPICE-style analytical compact model (via its steady-state
//     master-equation core, evaluated directly here).
#include <cstdio>

#include "analysis/current.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "master/master_equation.h"
#include "spice/set_model.h"

using namespace semsim;

int main() {
  const double v_half = 0.018;
  const double vg = 0.010;
  const double temperature = 5.0;

  const SetTransistor set = make_set(v_half, -v_half, vg);

  std::printf("SET at Vds = %.0f mV, Vg = %.0f mV, T = %.0f K\n",
              2e3 * v_half, 1e3 * vg, temperature);

  // 1. Monte-Carlo (adaptive solver).
  EngineOptions eo;
  eo.temperature = temperature;
  eo.seed = 9;
  Engine engine(set.c, eo);
  const CurrentEstimate mc = measure_mean_current(
      engine, {{0, 1.0}, {1, 1.0}}, CurrentMeasureConfig{5000, 100000, 8});
  std::printf("  Monte-Carlo:      I = %.5e A  (+- %.1e, %llu events)\n",
              mc.mean, mc.stderr_mean,
              static_cast<unsigned long long>(mc.events));

  // 2. Master equation over the enumerated charge states.
  EngineOptions mo;
  mo.temperature = temperature;
  MasterEquationSolver me(set.c, mo);
  std::printf("  Master equation:  I = %.5e A  (%zu states, residual %.1e)\n",
              me.junction_current(0), me.state_count(), me.residual());

  // 3. The SPICE baseline's analytical compact model. Its gate terms match
  //    this device with the phase gate unused (c_b -> tiny).
  const SetElements fig1;
  SetModelParams sm;
  sm.r_j = fig1.resistance;
  sm.c_j = fig1.capacitance;
  sm.c_g = fig1.gate_capacitance;
  sm.c_b = 1e-24;  // no phase gate on this device
  sm.temperature = temperature;
  std::printf("  SPICE model:      I = %.5e A\n",
              set_drain_current(sm, v_half, -v_half, vg, 0.0));

  std::printf("\nThe three agree on this single device; the paper's point is\n"
              "what happens at circuit scale — see bench/fig6_performance.\n");
  return 0;
}
