#include "analysis/noise.h"

#include <cmath>

#include "base/constants.h"
#include "base/error.h"
#include "base/math_util.h"

namespace semsim {

FanoEstimate measure_fano(Engine& engine, const FanoConfig& cfg) {
  require(cfg.window_time > 0.0, "measure_fano: window_time must be positive");
  require(cfg.windows >= 2, "measure_fano: need at least two windows");

  engine.run_events(cfg.warmup_events);

  RunningStats counts;
  for (unsigned w = 0; w < cfg.windows; ++w) {
    const double n0 = engine.junction_transferred_e(cfg.junction);
    engine.run_until(engine.time() + cfg.window_time);
    counts.add(engine.junction_transferred_e(cfg.junction) - n0);
  }

  FanoEstimate out;
  out.windows = cfg.windows;
  out.mean_per_window = counts.mean();
  out.current = kElementaryCharge * counts.mean() / cfg.window_time;
  const double denom = std::abs(counts.mean());
  out.fano = denom > 0.0 ? counts.variance() / denom : 0.0;
  return out;
}

}  // namespace semsim
