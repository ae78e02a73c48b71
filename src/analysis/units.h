// The two runners of the analysis layer: run_units for every multi-unit
// path, run_sequence for the two sequential ones.
//
// Multi-seed repeats, I-V sweep chunks, stability-map rows and ensemble
// replicas are the same loop: independent work units, each a pure function
// of (configuration, unit index), sharded on a ParallelExecutor. run_units
// owns everything around a unit's body:
//
//   * resume: the path's RunCheckpoint is opened under its sub-fingerprint
//     and every unit already on file is decoded instead of recomputed; the
//     runner itself writes and reads the UnitWork part of each payload
//     (stats, outcome, audit trail), the path's codec the rest;
//   * cancel: checked before each unit starts, outside any retry, so a
//     cancellation is never degraded into a recorded failure;
//   * fault isolation: an isolated unit that throws is retried on
//     retry_stream_seed(base_seed, unit, attempt), rethrown in
//     strict mode with "<name> <unit>" in its context chain, or degraded
//     (UnitWork::outcome); kCancelled is never retried or recorded;
//   * record and progress: a finished unit is recorded, then reported as
//     exactly one on_unit_done, restored units included;
//   * merge: after the region, on the calling thread in index order, every
//     unit's SolverStats and audit trail go into one RunCounters tally —
//     so results are bitwise identical for every thread count, and a
//     resumed run equals an uninterrupted one.
//
// Transient slices and partition milestones are instead the milestones of
// ONE evolving state, the points at which a sequential run can checkpoint.
// run_sequence encodes the state at every milestone, checkpointed or not,
// so the canonicalizing Engine::snapshot() behind it happens on every run:
// plain, checkpointed, resumed and served runs are one trajectory.
//
// run_with_retry is the retry loop itself; the sweep's per-point and the
// stability map's per-cell isolation call it directly, because a poisoned
// point must degrade alone while the rest of its chunk survives.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "base/cancel.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "guard/retry.h"
#include "obs/checkpoint.h"

namespace semsim {

class ProgressSink;
struct DriverOptions;
struct SimulationInput;

/// Throws Error(kCancelled, "run cancelled before <where>") once `cancel`
/// is raised; the one cancellation check of every analysis path.
void throw_if_cancelled(const CancelToken* cancel, const char* where);

/// Retry record of one fault-isolated item (work unit, sweep point, cell).
struct AttemptRecord {
  bool ok = true;
  ErrorCode code = ErrorCode::kNone;  ///< last error, also after a retry won
  std::uint32_t attempts = 1;
};

/// The retry loop: calls attempt(a) for a = 0, 1, ... until one returns. A
/// failed attempt is rethrown with label() in its context chain in strict
/// mode; otherwise on_error() retires its state and the item is retried
/// at once or, once the policy gives up, degraded (ok == false).
/// kCancelled is rethrown at once.
AttemptRecord run_with_retry(const RetryPolicy& policy,
                             const std::function<void(std::uint32_t)>& attempt,
                             const std::function<void()>& on_error,
                             const std::function<std::string()>& label);

/// The part of a unit result the runner merges and checkpoints; result
/// types derive from it, and their codecs carry only the rest.
struct UnitWork {
  SolverStats stats;
  IntegrityReport integrity;
  AttemptRecord outcome;  ///< isolated units only

  void add(const Engine& e) {
    stats += e.stats();
    integrity.merge(e.integrity_report());
  }
};

/// One attempt of one unit, handed to the unit body.
struct UnitAttempt {
  std::size_t unit = 0;
  std::uint32_t attempt = 0;
  std::uint64_t base_seed = 0;

  /// The attempt's RNG stream: retry_stream_seed(base_seed, unit, attempt).
  std::uint64_t seed() const noexcept {
    return retry_stream_seed(base_seed, unit, attempt);
  }
  /// This attempt's engine, on unit_engine_options(base, base_seed, unit,
  /// attempt), given the run's shared model and quasi-particle table, whose
  /// entries the unit engines fill concurrently (see the Engine
  /// constructor). The runner owns it and adds its work to the
  /// unit once the attempt returns or throws; the rvalue overload also
  /// keeps an attempt-local circuit (a perturbed replica) alive for it.
  Engine& engine(const Circuit& circuit, const EngineOptions& base,
                 std::shared_ptr<const ElectrostaticModel> model,
                 std::shared_ptr<const QuasiparticleRate> qp_table) const;
  Engine& engine(Circuit&& circuit, const EngineOptions& base,
                 std::shared_ptr<const ElectrostaticModel> model,
                 std::shared_ptr<const QuasiparticleRate> qp_table) const;

  std::optional<Engine>* engine_slot = nullptr;
  std::optional<Circuit>* circuit_slot = nullptr;
};

/// Where a path's units run and whom they report to.
struct UnitContext {
  ParallelExecutor exec;
  CheckpointConfig checkpoint;  ///< fingerprint: the path's sub-fingerprint
  const CancelToken* cancel = nullptr;
  ProgressSink* progress = nullptr;
  RetryPolicy retry;
  std::uint64_t base_seed = 0;

  /// Files the checkpoint under (run identity, tag, shape), the layout of
  /// the repeats, transient, partition and ensemble paths.
  void tag_checkpoint(const char* tag, std::uint64_t shape);
  /// nullptr when checkpointing is off.
  std::unique_ptr<RunCheckpoint> open_checkpoint(std::uint64_t units) const;
  void started(std::uint64_t units, std::uint64_t points) const;
  void unit_done(std::size_t unit) const;
};

/// A run_simulation path's context: the caller's shared pool or a private
/// one of options.threads workers, the options' hooks and retry policy,
/// and their checkpoint request under the run identity (resume_path wins
/// and demands an existing file).
UnitContext unit_context(const SimulationInput& input,
                         const DriverOptions& options,
                         std::uint64_t base_seed);

/// The milestones of one evolving state (see the header comment).
struct Sequence {
  std::size_t count = 0;
  const char* name = "milestone";  ///< cancellation message
  /// Carries the state to milestone k; false ends the sequence there (the
  /// run is exhausted).
  std::function<bool(std::size_t k)> advance;
  /// The state and everything the run did up to it, audit trails included.
  std::function<void(BinaryWriter&)> encode;
  std::function<void(BinaryReader&)> decode;
};

/// Restores the newest milestone on file, firing one on_unit_done per
/// restored milestone; then per further milestone checks cancellation,
/// advances, encodes, appends the payload when checkpointing (it replaces
/// every earlier milestone held in memory), and fires on_unit_done.
void run_sequence(const Sequence& seq, const UnitContext& ctx);

/// A path's work units.
template <typename T>
struct Units {
  std::size_t count = 0;
  std::uint64_t points = 0;  ///< sweep points covered (on_run_started)
  const char* name = "work unit";
  /// false: the body isolates its own faults; whatever it throws propagates.
  bool isolated = false;
  std::function<void(BinaryWriter&, const T&)> encode;
  std::function<T(BinaryReader&, std::size_t unit)> decode;
  std::function<void(const UnitAttempt&, T&)> body;
  /// Optional: called for each finished or restored unit before its
  /// on_unit_done.
  std::function<void(std::size_t unit, const T&)> finished;
};

namespace detail {
void run_attempts(const UnitContext& ctx, std::size_t unit, const char* name,
                  bool isolated, UnitWork& work,
                  const std::function<void(const UnitAttempt&)>& body);
void encode_unit_work(BinaryWriter& w, const UnitWork& work);
void decode_unit_work(BinaryReader& r, UnitWork& work);
}  // namespace detail

/// Runs `units` under `ctx` and returns their results in index order.
/// `tally` and `integrity` (each optional) receive the merge.
template <typename T>
std::vector<T> run_units(const Units<T>& units, const UnitContext& ctx,
                         RunCounters* tally,
                         IntegrityReport* integrity = nullptr) {
  static_assert(std::is_base_of_v<UnitWork, T>);
  const std::unique_ptr<RunCheckpoint> cp = ctx.open_checkpoint(units.count);
  ctx.started(units.count, units.points);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<T> out = ctx.exec.map<T>(units.count, [&](std::size_t u) {
    T r;
    if (cp && cp->has(u)) {
      const std::vector<std::uint8_t> bytes = cp->payload(u);
      BinaryReader rd(bytes);
      r = units.decode(rd, u);
      detail::decode_unit_work(rd, r);
      rd.require_done();
    } else {
      throw_if_cancelled(ctx.cancel, units.name);
      detail::run_attempts(ctx, u, units.name, units.isolated, r,
                           [&](const UnitAttempt& a) { units.body(a, r); });
      if (cp) {
        BinaryWriter w;
        units.encode(w, r);
        detail::encode_unit_work(w, r);
        cp->record(u, w.take());
      }
    }
    if (units.finished) units.finished(u, r);
    ctx.unit_done(u);
    return r;
  });
  if (tally != nullptr) {
    tally->threads = ctx.exec.threads();
    tally->units += units.count;
    tally->wall_seconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  }
  for (const T& r : out) {
    if (tally != nullptr) tally->stats += r.stats;
    if (integrity != nullptr) integrity->merge(r.integrity);
  }
  return out;
}

}  // namespace semsim
