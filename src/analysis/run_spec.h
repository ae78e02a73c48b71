// The run options of SEMSIM, declared once. A run is an input file plus a
// RunSpec: every front end fills one (semsim's and semsim_submit's flags
// through tools/flags.h, the service envelope through io/envelope.h) and
// every consumer reads it (the driver, the run fingerprint, the result
// document's echo). The types around it add only what is theirs:
// DriverOptions (analysis/driver.h) how this process executes the run,
// RunRequest (analysis/api.h) the parsed input, RequestEnvelope
// (io/envelope.h) the wire fields of a request. Header-only, so the io
// layer carries it without linking the simulation libraries.
//
// The scalars of the ensemble and partition specs are tabulated in
// analysis/run_fields.inc, which the fingerprint writer, the JSON writers
// and parser and the flag parser expand mechanically.
#pragma once

#include <cstdint>

#include "analysis/ensemble_spec.h"
#include "core/options.h"
#include "core/partition_spec.h"
#include "guard/retry.h"

namespace semsim {

struct RunSpec {
  /// Base seed of every RNG stream: work units are seeded from (seed,
  /// unit_index), never from the executing thread, so results are
  /// bitwise identical for every thread count (see base/thread_pool.h).
  std::uint64_t seed = 1;
  bool adaptive = true;  ///< false = conventional non-adaptive solver

  /// Convergence-based stopping (obs subsystem): when
  /// stop.convergence_enabled(), measurements run until the binned relative
  /// error of the current meets stop.target_rel_error instead of a fixed
  /// `jumps` budget (which then only serves as stop.max_events fallback).
  StopCriterion stop;

  /// Fault isolation for sweep points and repeat units (guard/retry.h):
  /// recoverable errors are retried on a re-seeded stream, then degraded to
  /// a recorded failure; retry.strict restores fail-fast (CLI --strict).
  RetryPolicy retry;

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
};

}  // namespace semsim
