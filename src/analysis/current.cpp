#include "analysis/current.h"

#include <algorithm>

#include "base/constants.h"
#include "base/error.h"
#include "base/math_util.h"

namespace semsim {

CurrentEstimate measure_mean_current(Engine& engine,
                                     const std::vector<CurrentProbe>& probes,
                                     const CurrentMeasureConfig& cfg) {
  require(!probes.empty(), "measure_mean_current: no probes given");
  require(cfg.blocks >= 1, "measure_mean_current: need at least one block");

  engine.run_events(cfg.warmup_events);

  RunningStats stats;
  const std::uint64_t per_block =
      std::max<std::uint64_t>(1, cfg.measure_events / cfg.blocks);
  const double t_begin = engine.time();
  std::uint64_t executed_total = 0;
  std::vector<double> c0(probes.size());

  for (unsigned b = 0; b < cfg.blocks; ++b) {
    const double t0 = engine.time();
    for (std::size_t i = 0; i < probes.size(); ++i) {
      c0[i] = engine.junction_transferred_e(probes[i].junction);
    }
    const std::uint64_t done = engine.run_events(per_block);
    executed_total += done;
    const double dt = engine.time() - t0;
    if (done == 0 || dt <= 0.0) {
      // Engine is stuck (e.g. deep Coulomb blockade at T = 0 with no open
      // channel): the physical steady-state current is zero.
      stats.add(0.0);
      break;
    }
    double i_sum = 0.0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const double dq_e =
          engine.junction_transferred_e(probes[i].junction) - c0[i];
      i_sum += probes[i].sign * kElementaryCharge * dq_e / dt;
    }
    stats.add(i_sum / static_cast<double>(probes.size()));
  }

  CurrentEstimate out;
  out.mean = stats.mean();
  out.stderr_mean = stats.stderr_mean();
  out.sim_time = engine.time() - t_begin;
  out.events = executed_total;
  return out;
}

namespace {

/// Chunk length of the streaming estimator: short enough that the binning
/// hierarchy has plenty of samples to resolve the autocorrelation plateau,
/// long enough that the per-chunk dt is rarely zero.
constexpr std::uint64_t kEventsPerChunk = 16;

}  // namespace

ConvergedCurrentResult measure_current_converged(
    Engine& engine, const std::vector<CurrentProbe>& probes,
    std::uint64_t warmup_events, const StopCriterion& stop) {
  require(!probes.empty(), "measure_current_converged: no probes given");
  require(stop.max_events > 0 || stop.convergence_enabled(),
          "measure_current_converged: need max_events or a target_rel_error");

  engine.run_events(warmup_events);

  ConvergedCurrentResult out;
  const double t_begin = engine.time();
  // Auto interval: enough chunks between checks that binned_error has levels
  // to work with early on, without checks ever dominating the run.
  const std::uint64_t check_interval =
      stop.check_interval > 0 ? stop.check_interval : 4096;
  std::uint64_t executed_total = 0;
  std::uint64_t next_check = check_interval;
  std::vector<double> c_begin(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    c_begin[i] = engine.junction_transferred_e(probes[i].junction);
  }
  std::vector<double> c0(probes.size());
  bool stuck = false;

  while (true) {
    std::uint64_t chunk = kEventsPerChunk;
    if (stop.max_events > 0) {
      if (executed_total >= stop.max_events) break;
      chunk = std::min<std::uint64_t>(chunk, stop.max_events - executed_total);
    }
    const double t0 = engine.time();
    for (std::size_t i = 0; i < probes.size(); ++i) {
      c0[i] = engine.junction_transferred_e(probes[i].junction);
    }
    const std::uint64_t done = engine.run_events(chunk);
    executed_total += done;
    const double dt = engine.time() - t0;
    if (done == 0 || dt <= 0.0) {
      // Engine is stuck (deep Coulomb blockade with no open channel): the
      // physical steady-state current is exactly zero, and no amount of
      // further simulation changes that — report converged.
      out.samples.add(0.0);
      out.converged = true;
      stuck = true;
      break;
    }
    double i_sum = 0.0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const double dq_e =
          engine.junction_transferred_e(probes[i].junction) - c0[i];
      i_sum += probes[i].sign * kElementaryCharge * dq_e / dt;
    }
    out.samples.add(i_sum / static_cast<double>(probes.size()));

    if (stop.convergence_enabled() && executed_total >= next_check) {
      next_check = executed_total + check_interval;
      // Below ~2 * kMinBinsForError samples the binned estimator has no
      // plateau to read and the error is unreliable (or exactly 0 for a
      // single sample) — never declare convergence that early.
      if (out.samples.count() < 128) continue;
      const double rel = out.samples.rel_error();
      if (rel <= stop.target_rel_error) {
        out.converged = true;
        break;
      }
    }
  }

  // The current is the total signed charge over the total measured time.
  // The per-chunk samples above only drive the stopping rule and the error
  // bar: their mean is biased, since a chunk's duration is a sum of
  // kEventsPerChunk exponential waiting times, and the mean of 1/t over
  // such a Gamma(16) time is 16/15 of 1/mean(t).
  out.estimate.sim_time = engine.time() - t_begin;
  if (!stuck && out.estimate.sim_time > 0.0) {
    double q_sum = 0.0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      q_sum += probes[i].sign * kElementaryCharge *
               (engine.junction_transferred_e(probes[i].junction) -
                c_begin[i]);
    }
    out.estimate.mean = q_sum / static_cast<double>(probes.size()) /
                        out.estimate.sim_time;
  }
  out.estimate.stderr_mean = out.samples.binned_error();
  out.estimate.events = executed_total;
  out.tau_int = out.samples.tau_int();
  out.rel_error = out.samples.rel_error();
  return out;
}

}  // namespace semsim
