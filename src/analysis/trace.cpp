#include "analysis/trace.h"

#include <cmath>

#include "base/error.h"

namespace semsim {

std::vector<TracePoint> record_voltage_trace(Engine& engine,
                                             const TraceConfig& cfg) {
  require(cfg.t_end > engine.time(), "record_voltage_trace: t_end in the past");
  std::vector<TracePoint> trace;
  double smoothed = engine.node_voltage(cfg.node);
  trace.push_back({engine.time(), smoothed});

  double t_prev = engine.time();
  while (engine.time() < cfg.t_end) {
    Event ev;
    // Advance by one event; a stuck engine still lets time run out.
    if (!engine.step(&ev)) {
      engine.run_until(cfg.t_end);
      trace.push_back({engine.time(), smoothed});
      break;
    }
    if (engine.time() > cfg.t_end) break;
    const double v = engine.node_voltage(cfg.node);
    if (cfg.smoothing_tau > 0.0) {
      const double w = -std::expm1(-(engine.time() - t_prev) / cfg.smoothing_tau);
      smoothed += w * (v - smoothed);
    } else {
      smoothed = v;
    }
    t_prev = engine.time();
    if (trace.empty() || engine.time() - trace.back().time >= cfg.min_spacing) {
      trace.push_back({engine.time(), smoothed});
    }
  }
  if (trace.back().time < cfg.t_end) {
    trace.push_back({cfg.t_end, smoothed});
  }
  return trace;
}

}  // namespace semsim
