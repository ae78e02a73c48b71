// High-level simulation driver: executes a parsed SEMSIM input file
// (netlist/parser.h) the way the paper's tool does — run the Monte-Carlo
// process until the requested number of jumps or simulated time, recording
// the requested junction currents, or sweep a source if a `sweep` directive
// is present.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/current.h"
#include "analysis/ensemble.h"
#include "analysis/run_spec.h"
#include "analysis/sweep.h"
#include "base/cancel.h"
#include "netlist/parser.h"
#include "obs/checkpoint.h"

namespace semsim {

/// Options for run_simulation: the run spec (analysis/run_spec.h) plus how
/// this process executes it. run_fingerprint() reads none of the fields
/// added here.
struct DriverOptions : RunSpec {
  /// Worker threads for sweeps and multi-seed (`jumps <n> <repeats>`) runs;
  /// 0 = all hardware threads. Results are bitwise identical for every
  /// value.
  unsigned threads = 1;

  /// Non-empty enables crash-safe checkpointing to this file: completed
  /// work units (sweep chunks, repeats, replicas) or a sequential run's
  /// milestones (transient, partitioned) are appended one frame each, and
  /// a matching existing file is resumed from. It never
  /// changes a result. The run identity (circuit, directives, seed, solver,
  /// stop criterion) is fingerprinted into the file; a mismatched file is
  /// rejected with Error.
  std::string checkpoint_path;
  /// Like checkpoint_path, but the file MUST already exist (--resume).
  std::string resume_path;
  /// Salvage a damaged checkpoint file: keep the valid record prefix and
  /// recompute the rest instead of rejecting the file (--salvage-checkpoint).
  bool salvage_checkpoint = false;

  /// Invariant-audit cadence/tolerances for every engine of the run
  /// (guard/integrity.h). On by default at the auto cadence.
  AuditOptions audit;
  /// Optional deterministic fault schedule (tests/benches); the caller owns
  /// the plan, which must outlive the run. nullptr = no injection.
  const FaultPlan* fault_plan = nullptr;

  // ---- service hooks: they observe or interrupt a run but never change
  // what it computes.

  /// External worker pool to shard work units on. The service daemon passes
  /// its long-lived pool so every job shares one set of threads; nullptr =
  /// construct a private executor from `threads`.
  const ParallelExecutor* executor = nullptr;
  /// Cooperative cancellation (base/cancel.h): polled at work-unit and
  /// bias-point boundaries; a raised token aborts the run with
  /// Error(ErrorCode::kCancelled). Completed units are already checkpointed
  /// when checkpointing is on, so cancelled work is resumable.
  const CancelToken* cancel = nullptr;
  /// Streaming partial-result consumer; must be thread-safe. nullptr = off.
  ProgressSink* progress = nullptr;
};

/// One work unit (sweep point index, repeat index) that exhausted its
/// attempts and was excluded from the results.
struct UnitFailure {
  std::uint64_t unit = 0;
  ErrorCode code = ErrorCode::kNone;
  std::uint32_t attempts = 0;  ///< attempts spent before giving up
  std::string message;
};

struct DriverResult {
  /// Filled when the input has a `sweep` directive.
  std::vector<IvPoint> sweep;
  /// Filled otherwise: the recorded junctions' mean current.
  std::optional<CurrentEstimate> current;
  double simulated_time = 0.0;  ///< [s]
  std::uint64_t events = 0;
  /// Solver work summed over every work unit (sweep chunks, repeats,
  /// replicas, clusters), independent of the thread count except for
  /// threads and wall_seconds.
  RunCounters counters;
  /// Filled by the `jumps` path when convergence stopping is enabled:
  /// the merged (index-order, thread-count-independent) sample statistics
  /// across all repeats.
  std::optional<ConvergedCurrentResult> converged;
  /// Work units that exhausted their retry budget (non-strict mode only;
  /// strict runs throw instead). Sweep failures also appear as
  /// `failed:<code>` rows in `sweep`.
  std::vector<UnitFailure> failures;
  /// Merged audit trail of every engine the run created (index order).
  IntegrityReport integrity;

  /// Filled when options.ensemble.enabled: per-replica rows and the
  /// cross-replica bands. The top-level current/sweep/stats above then hold
  /// the ensemble MEANS (sweep rows per bias point, current across
  /// replicas) so non-ensemble readers keep working.
  std::optional<EnsembleResult> ensemble;

  /// True when some unit failed and its result was degraded (NaN sweep row,
  /// excluded repeat); CLI maps this to a distinct nonzero exit code.
  bool degraded() const noexcept { return !failures.empty(); }
};

/// Run identity hash for checkpoint files and the result cache: everything
/// that determines the sampled streams and results — circuit topology and
/// element values, simulation directives, seed, solver choice, stop
/// criterion, ensemble and partition specs — but NOT the spec's retry
/// policy, nor anything DriverOptions adds (threads, checkpoint files,
/// hooks).
std::uint64_t run_fingerprint(const SimulationInput& input,
                              const RunSpec& spec);

/// Runs the simulation an input file describes. Throws on structurally
/// invalid inputs (e.g. `record` missing when a current is requested).
DriverResult run_simulation(const SimulationInput& input,
                            const DriverOptions& options = {});

}  // namespace semsim
