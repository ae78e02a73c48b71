// Bias sweeps and 2-D stability maps built on the Monte-Carlo engine.
//
// Every sweep and map runs through run_units (analysis/units.h), the one
// place that checkpoints, retries and cancels work units. A sweep is split
// into fixed chunks of consecutive points (a 2-D map: one gate row per
// unit), and each chunk runs on its own engine, seeded by
// derive_stream_seed(base_seed, chunk_index). The decomposition and the
// seeds depend only on the configuration, never on the worker count, so
// every thread count produces bitwise-identical tables
// (tests/test_parallel.cpp). Within a chunk, each point warm-starts from
// its predecessor's charge state (set_dc_source does not touch the
// capacitance matrices) — the classic serial SEMSIM trick to keep
// equilibration cheap along a sweep. One chunk holding every point
// (points_per_unit = point count) is the fully serial sweep.
#pragma once

#include <string>
#include <vector>

#include "analysis/current.h"
#include "base/cancel.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "guard/integrity.h"
#include "guard/retry.h"
#include "netlist/parser.h"
#include "obs/checkpoint.h"

namespace semsim {

/// Fault-isolation outcome of one sweep point (guard layer). kOk means the
/// first attempt succeeded; kRetried means at least one attempt threw a
/// recoverable error and a re-seeded attempt succeeded; kFailed means every
/// permitted attempt failed and the point carries NaN values.
enum class PointStatus : std::uint8_t { kOk = 0, kRetried = 1, kFailed = 2 };

struct IvPoint {
  double bias = 0.0;     ///< swept source voltage [V]
  double current = 0.0;  ///< [A]
  double stderr_mean = 0.0;
  // Filled by the convergence-stopped mode (cfg.stop.convergence_enabled());
  // defaults describe the fixed-budget estimator.
  double rel_error = 0.0;   ///< binned stderr / |mean|
  double tau_int = 0.5;     ///< integrated autocorrelation time [chunks]
  std::uint64_t events = 0; ///< measurement events spent on this point
  // Fault-isolation outcome (guard layer).
  PointStatus status = PointStatus::kOk;
  ErrorCode error = ErrorCode::kNone;  ///< last error when status != kOk
  std::uint32_t attempts = 1;          ///< attempts spent on this point
};

/// Status-column label: "ok", "retried", or "failed:<code name>" (e.g.
/// "failed:invariant.non_finite_rate").
std::string point_status_label(const IvPoint& p);

/// Checkpoint codec of one point (sweep chunks and ensemble replica rows).
void encode_iv_point(BinaryWriter& w, const IvPoint& p);
IvPoint decode_iv_point(BinaryReader& r);

/// Streaming progress consumer for long runs (the service daemon's status
/// verb). Callbacks fire from WORKER THREADS as work units complete, so
/// implementations must be thread-safe. Observing progress never draws RNG
/// or changes results; a run with a sink is bitwise identical to one
/// without.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  /// The run's decomposition, reported once before execution: total work
  /// units (sweep chunks, repeats, transient slices, partition milestones,
  /// ensemble replicas), and total sweep points (0 for non-sweep runs).
  virtual void on_run_started(std::uint64_t /*units_total*/,
                              std::uint64_t /*points_total*/) {}
  /// A sweep chunk finished (or was restored from a checkpoint): points
  /// [first, first + count) of the table are final, including degraded
  /// `failed:<code>` rows. Followed by the chunk's on_unit_done.
  virtual void on_sweep_points(std::size_t /*first*/,
                               const IvPoint* /*points*/,
                               std::size_t /*count*/) {}
  /// Work unit `unit` finished or was restored from a checkpoint: fires
  /// exactly once per unit, in completion order.
  virtual void on_unit_done(std::size_t /*unit*/) {}
};

struct IvSweepConfig {
  NodeId swept = 0;        ///< external node being swept
  NodeId mirror = -1;      ///< optional `symm` node driven at -V
  double from = 0.0;
  double to = 0.0;
  double step = 0.0;       ///< > 0
  std::vector<CurrentProbe> probes;  ///< recorded junctions (averaged)
  CurrentMeasureConfig measure;
  /// When convergence stopping is enabled, each bias point runs until the
  /// binned relative error of its current meets the target (or max_events),
  /// replacing the fixed measure.measure_events budget; measure.warmup_events
  /// still applies.
  StopCriterion stop;
  /// Fault isolation: recoverable per-point errors (numeric, invariant,
  /// timeout) are retried on a re-seeded engine, then degraded to a
  /// `failed:<code>` row instead of aborting the sweep. retry.strict
  /// restores fail-fast: the first error is rethrown with the bias point
  /// added to its context chain.
  RetryPolicy retry;
  /// Cooperative cancellation, polled before every bias point and work
  /// unit: a raised token throws Error(kCancelled) WITHOUT recording the
  /// in-progress chunk, so checkpoints only ever hold fully finished units.
  const CancelToken* cancel = nullptr;
  /// Streaming partial-result consumer (thread-safe); nullptr = off.
  ProgressSink* progress = nullptr;
};

/// Work-unit decomposition and seeding of sweeps and maps.
struct ParallelSweepConfig {
  /// Base seed every work unit's RNG stream is derived from.
  std::uint64_t base_seed = 1;
  /// Consecutive sweep points per work unit (>= 1). Part of the result's
  /// identity: changing it changes the decomposition (and therefore the
  /// sampled streams), changing the thread count never does. Larger chunks
  /// amortize per-engine setup and keep the warm-start trick within the
  /// chunk; the model and any quasi-particle grid are built once per sweep
  /// whatever the chunking.
  std::size_t points_per_unit = 1;
};

/// Deterministic parallel I-V sweep: one engine per chunk of points, each
/// seeded from (base_seed, chunk_index). Points are from, from+step, ...,
/// <= to (+eps). `counters`, when non-null, gets the solver work of all
/// units (merged in index order) and the wall time of the parallel region.
/// When `ckpt` is enabled, every finished chunk is recorded in a
/// RunCheckpoint at ckpt.path (one appended frame per unit) and chunks already
/// present in the file are restored instead of recomputed —
/// because chunks are pure functions of (config, chunk_index), the resumed
/// table is bitwise identical to the uninterrupted one at any thread count.
/// `integrity`, when non-null, additionally receives the merged (unit
/// index order) audit trail of every engine the sweep ran, including the
/// engines of failed attempts. Chunks restored from a checkpoint contribute
/// no audit counts (the trail is a diagnostic, not part of the run identity,
/// so it is not serialized).
std::vector<IvPoint> run_iv_sweep(const Circuit& circuit,
                                  const EngineOptions& options,
                                  const IvSweepConfig& cfg,
                                  const ParallelExecutor& exec,
                                  const ParallelSweepConfig& par = {},
                                  RunCounters* counters = nullptr,
                                  const CheckpointConfig& ckpt = {},
                                  IntegrityReport* integrity = nullptr);

/// Builds an IvSweepConfig from a parsed input file's sweep/record/jumps
/// directives (paper Example Input File 1 end-to-end path).
IvSweepConfig sweep_config_from_input(const SimulationInput& input);

/// The `record` directive's junctions as probes (a -> b positive).
std::vector<CurrentProbe> recorded_probes(const SimulationInput& input);

/// The `jumps` directive as a fixed measurement budget: `jumps` events
/// (10000 when unset) after a warm-up of a tenth of that (at least 100).
CurrentMeasureConfig measure_config_from_input(const SimulationInput& input);

struct StabilityMapConfig {
  NodeId bias_node = 0;
  NodeId mirror = -1;      ///< optional symmetric counter-bias node
  NodeId gate_node = 0;
  std::vector<double> bias_values;
  std::vector<double> gate_values;
  std::vector<CurrentProbe> probes;
  CurrentMeasureConfig measure;
  /// Per-cell fault isolation; see IvSweepConfig::retry.
  RetryPolicy retry;
};

/// Fault-isolation outcome of one stability-map cell that did not complete
/// on its first attempt (the map itself only holds |I| doubles; a failed
/// cell is NaN).
struct MapCellStatus {
  std::size_t gate = 0;
  std::size_t bias = 0;
  PointStatus status = PointStatus::kOk;
  ErrorCode error = ErrorCode::kNone;
  std::uint32_t attempts = 1;
};

/// Optional diagnostics from a stability map: every degraded (retried or
/// failed) cell plus the merged audit trail of all engines.
struct StabilityMapReport {
  std::vector<MapCellStatus> degraded;
  IntegrityReport integrity;

  bool ok() const noexcept { return degraded.empty(); }
};

/// 2-D current map: result[g][b] = |I| at gate_values[g], bias_values[b].
/// (Magnitude, matching the log-scale contour of the paper's Fig. 5.)
/// One work unit per GATE ROW (the bias sweep inside a row warm-starts
/// serially), row seeds derived from (base_seed, row_index);
/// points_per_unit is ignored. Bitwise-identical for every thread count.
std::vector<std::vector<double>> run_stability_map(
    const Circuit& circuit, const EngineOptions& options,
    const StabilityMapConfig& cfg, const ParallelExecutor& exec,
    const ParallelSweepConfig& par = {}, RunCounters* counters = nullptr,
    StabilityMapReport* report = nullptr);

}  // namespace semsim
