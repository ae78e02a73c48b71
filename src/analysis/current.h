// Steady-state current estimation from a running Monte-Carlo engine.
//
// Current through a junction is measured by charge counting: the engine
// accumulates the transported charge per junction (paper: `record`
// directive), and the estimator discards a warm-up period, then averages
// e * dQ/dt over several independent blocks to attach a standard error to
// the mean — essential for Fig. 1/5, where sub-gap currents span decades.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "obs/accumulator.h"

namespace semsim {

/// One recorded junction with a sign fixing the positive-current direction.
/// sign = +1 reads conventional current a -> b as positive; use -1 when the
/// junction is written against the intended device orientation (e.g. the
/// paper's SET input file declares both junctions lead -> island, so the
/// drain junction needs -1 for source->drain current to be positive).
struct CurrentProbe {
  std::size_t junction = 0;
  double sign = 1.0;
};

struct CurrentEstimate {
  double mean = 0.0;        ///< [A]
  double stderr_mean = 0.0; ///< [A]
  double sim_time = 0.0;    ///< measured span [s]
  std::uint64_t events = 0; ///< events in the measurement window
};

struct CurrentMeasureConfig {
  std::uint64_t warmup_events = 1000;
  std::uint64_t measure_events = 10000;
  unsigned blocks = 8;  ///< independent averaging blocks (>= 2 for stderr)
};

/// Runs the engine in place and measures the mean of the probed currents
/// (in steady state, series junctions carry the same DC current, so the
/// average only reduces shot noise — the paper's `record 1 2 2`).
CurrentEstimate measure_mean_current(Engine& engine,
                                     const std::vector<CurrentProbe>& probes,
                                     const CurrentMeasureConfig& cfg);

/// Result of a convergence-stopped measurement (obs subsystem).
struct ConvergedCurrentResult {
  /// stderr_mean is the autocorrelation-aware BINNED error, not the naive
  /// iid one.
  CurrentEstimate estimate;
  double tau_int = 0.5;     ///< integrated autocorrelation time (in chunks)
  /// Binned error / |mean of the chunk samples|: the stopping rule's
  /// measure.
  double rel_error = 0.0;
  bool converged = false;   ///< target reached before the event cap
  /// Per-chunk current samples; mergeable across work units in index order
  /// (BinningAccumulator::merge) for thread-count-independent statistics.
  BinningAccumulator samples;
};

/// Streams per-chunk current estimates (charge counting over short fixed
/// event chunks) into a BinningAccumulator and stops as soon as the binned
/// relative error of the mean current drops below stop.target_rel_error —
/// checked every stop.check_interval events — or at stop.max_events.
/// The reported current is the total signed charge over the total measured
/// time (not the chunk mean, which reads 16/15 high); the chunks give the
/// binned error. A stuck engine (deep blockade, no open channel) reports an
/// exactly-zero converged current, like measure_mean_current.
ConvergedCurrentResult measure_current_converged(
    Engine& engine, const std::vector<CurrentProbe>& probes,
    std::uint64_t warmup_events, const StopCriterion& stop);

}  // namespace semsim
