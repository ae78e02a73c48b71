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
#include "analysis/sweep.h"
#include "base/cancel.h"
#include "core/partition_spec.h"
#include "netlist/parser.h"
#include "obs/checkpoint.h"

namespace semsim {

/// The ONE declaration of every run option. DriverOptions and RunRequest
/// (analysis/api.h) used to carry hand-mirrored copies of these fields —
/// every addition risked drifting across api.h/driver.h/semsim_cli — so
/// both are now this struct (RunRequest adds the parsed input on top). The
/// fingerprinted scalar subset is additionally tabulated in
/// analysis/run_fields.inc, which the fingerprint writer, the envelope
/// codec and the CLI parsers expand mechanically.
struct RunOptionsCore {
  std::uint64_t seed = 1;
  bool adaptive = true;   ///< false = conventional non-adaptive solver
  /// Opt-in fast thermal rate kernel (EngineOptions::fast_rates): replaces
  /// libm expm1 with a polynomial approximation, rates within 1e-12 relative
  /// of the exact kernel. Deterministic, but trajectories are NOT bitwise
  /// comparable with exact-mode runs, so the flag is part of the run
  /// fingerprint. CLI --fast-rates.
  bool fast_rates = false;
  /// Worker threads for sweeps and multi-seed (`jumps <n> <repeats>`) runs;
  /// 0 = all hardware threads. Results are bitwise identical for every
  /// value: work units are seeded from (seed, unit_index), never from the
  /// executing thread (see base/thread_pool.h).
  unsigned threads = 1;

  /// Convergence-based stopping (obs subsystem): when
  /// stop.convergence_enabled(), measurements run until the binned relative
  /// error of the current meets stop.target_rel_error instead of a fixed
  /// `jumps` budget (which then only serves as stop.max_events fallback).
  StopCriterion stop;

  /// Non-empty enables crash-safe checkpointing to this file: completed
  /// work units (sweep chunks, repeats, replicas) or a sequential run's
  /// newest milestone (transient, partitioned) are recorded via an atomic
  /// rewrite, and a matching existing file is resumed from. It never
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
  /// Fault isolation for sweep points and repeat units (guard/retry.h):
  /// recoverable errors are retried on a re-seeded stream, then degraded to
  /// a recorded failure; retry.strict restores fail-fast (CLI --strict).
  RetryPolicy retry;
  /// Optional deterministic fault schedule (tests/benches); the caller owns
  /// the plan, which must outlive the run. nullptr = no injection.
  const FaultPlan* fault_plan = nullptr;

  /// Statistical device-variability ensemble (analysis/ensemble.h): when
  /// enabled, the run simulates ensemble.replicas perturbed copies of the
  /// input device and reports per-replica rows plus cross-replica bands.
  /// Fingerprinted (appended fields) only when enabled, so non-ensemble
  /// fingerprints are byte-identical to pre-ensemble builds.
  EnsembleSpec ensemble;

  /// Domain-decomposed single-run execution (core/partition.h): split the
  /// junction graph into weakly-coupled clusters and advance them in
  /// conservative time windows. Fingerprinted (appended fields) only when
  /// enabled, like the ensemble spec.
  PartitionSpec partition;

  // ---- service hooks (analysis/api.h RunRequest mirrors these) --------
  // None of the three participates in run_fingerprint(): they observe or
  // interrupt a run but never change what it computes.

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

/// Options for run_simulation. Exactly RunOptionsCore — the name survives
/// for the call sites; C++17 aggregate rules keep `DriverOptions{}` and
/// member-by-member initialization working unchanged.
struct DriverOptions : RunOptionsCore {};

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

/// Run identity hash for checkpoint files: everything that determines the
/// sampled streams and results — circuit topology and element values,
/// simulation directives, seed, solver choice, stop criterion — but NOT the
/// thread count, which never affects results.
std::uint64_t run_fingerprint(const SimulationInput& input,
                              const DriverOptions& options);

/// Runs the simulation an input file describes. Throws on structurally
/// invalid inputs (e.g. `record` missing when a current is requested).
DriverResult run_simulation(const SimulationInput& input,
                            const DriverOptions& options = {});

}  // namespace semsim
