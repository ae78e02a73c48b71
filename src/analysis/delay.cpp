#include "analysis/delay.h"

#include <cmath>

#include "base/error.h"

namespace semsim {

double measure_propagation_delay(Engine& engine, const DelayConfig& cfg) {
  require(cfg.t_max > cfg.t_step, "measure_propagation_delay: t_max <= t_step");

  // Run up to the input step so the smoothed value starts from the settled
  // pre-transition level.
  if (engine.time() < cfg.t_step) engine.run_until(cfg.t_step);

  double smoothed = engine.node_voltage(cfg.output);
  double t_prev = engine.time();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  while (engine.time() < cfg.t_max) {
    Event ev;
    if (!engine.step(&ev)) return nan;  // stuck: output frozen short of t_max
    const double v = engine.node_voltage(cfg.output);
    const double dt = engine.time() - t_prev;
    t_prev = engine.time();
    if (cfg.smoothing_tau > 0.0) {
      const double w = -std::expm1(-dt / cfg.smoothing_tau);  // 1 - e^-dt/tau
      smoothed += w * (v - smoothed);
    } else {
      smoothed = v;
    }
    if (engine.time() <= cfg.t_step) continue;
    const bool crossed = cfg.rising ? smoothed >= cfg.v_threshold
                                    : smoothed <= cfg.v_threshold;
    if (crossed) return engine.time() - cfg.t_step;
  }
  return nan;
}

}  // namespace semsim
