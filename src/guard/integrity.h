// Runtime invariant auditing for the MC engine.
//
// The adaptive solver (paper Algorithm 1) deliberately lets island
// potentials drift between refreshes, which only pays off if the simulator
// can detect when a run has gone bad — a NaN that sneaks into a rate or a
// charge-bookkeeping bug silently poisons every observable downstream. The
// InvariantAuditor runs a cheap O(channels) check at a configurable event
// cadence over a raw-pointer view of the engine state (AuditView — guard
// deliberately does not know the Engine type, so the dependency stays
// base <- guard <- core):
//
//   * every channel rate is finite and non-negative;
//   * every stored per-channel ΔW is finite (it feeds the batched rate
//     kernel and the adaptive staleness test), and — when the engine marks
//     the store as freshly derived from exact potentials — agrees with a
//     recompute from the potential cache within a small relative tolerance;
//   * every cached island potential is finite;
//   * the Fenwick running total agrees with an exact recompute within a
//     relative tolerance (incremental drift is squashed periodically by the
//     engine, so real drift beyond the tolerance means corruption);
//   * total charge is conserved: the change in each island's electron count
//     since the last rebaseline equals the signed sum of charge transported
//     through its incident junctions (transferred_e bookkeeping);
//   * progress: the simulation clock must advance (a frozen clock while
//     events execute means a stalled waveform/rate pathology), and an
//     optional wall-clock watchdog bounds the real time a run may take.
//
// A failed check is recorded in the IntegrityReport and thrown as a coded
// InvariantViolation / TimeoutError, which the fault-isolated sweep drivers
// (analysis/sweep) catch per bias point and convert into a retry.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/fenwick.h"

namespace semsim {

/// Tuning knobs for the periodic audit. Carried inside EngineOptions.
struct AuditOptions {
  bool enabled = true;
  /// Events between audits; 0 = auto (kAutoInterval). The default keeps the
  /// amortized cost far below the per-event work, so golden trajectories
  /// and the perf gate are unaffected.
  std::uint64_t interval = 0;
  /// Abort (TimeoutError) when one run exceeds this wall-clock budget.
  /// 0 disables the wall-clock watchdog.
  double watchdog_seconds = 0.0;
  /// Declare no-progress when this many events execute without the
  /// simulation clock advancing. 0 disables the check.
  std::uint64_t no_progress_events = 1'000'000;

  static constexpr std::uint64_t kAutoInterval = 4096;

  std::uint64_t resolved_interval() const noexcept {
    return interval == 0 ? kAutoInterval : interval;
  }
};

/// One detected violation.
struct IntegrityIssue {
  ErrorCode code = ErrorCode::kNone;
  std::string detail;
  std::uint64_t at_event = 0;
  double sim_time = 0.0;
};

/// Summary of all audits run by one engine (or merged across the engines of
/// a sweep). Embedded in RunResult::to_json (schema v2).
struct IntegrityReport {
  std::uint64_t audits_run = 0;
  std::uint64_t last_audit_event = 0;
  std::vector<IntegrityIssue> issues;

  bool ok() const noexcept { return issues.empty(); }

  void merge(const IntegrityReport& other) {
    audits_run += other.audits_run;
    if (other.last_audit_event > last_audit_event)
      last_audit_event = other.last_audit_event;
    issues.insert(issues.end(), other.issues.begin(), other.issues.end());
  }
};

/// Raw-pointer snapshot of the engine state handed to audit(). All arrays
/// are borrowed for the duration of the call. Junction endpoints come as
/// SLOTS (the engine's unified node index): slot < n_islands means island.
struct AuditView {
  const FenwickTree* rates = nullptr;
  const double* island_v = nullptr;  ///< potential cache, n_islands entries
  std::size_t n_islands = 0;
  const long* electrons = nullptr;        ///< per island
  const long* base_electrons = nullptr;   ///< baseline at last rebaseline
  const double* transferred_e = nullptr;  ///< per junction, units of e
  const double* base_transferred = nullptr;
  std::size_t n_junctions = 0;
  const std::uint32_t* slot_a = nullptr;  ///< per junction endpoint slot
  const std::uint32_t* slot_b = nullptr;
  /// Stored per-channel ΔW maintained by the engine's batch-kernel path:
  /// 2 entries per junction (fw, bw), n_delta_w total. Optional (nullptr
  /// skips the delta_w checks).
  const double* delta_w = nullptr;
  std::size_t n_delta_w = 0;
  /// Full unified potential array (islands, externals, ground) indexed by
  /// slot_a/slot_b, and the per-junction charging terms u_j [J]. Needed
  /// only for the synced recompute check below.
  const double* node_v = nullptr;
  const double* charging_u = nullptr;
  /// True when delta_w was fully re-derived from exact potentials after the
  /// last charge move (non-adaptive mode recomputes every entry per event).
  /// The auditor then recomputes ΔW from node_v/charging_u and flags any
  /// entry that drifted beyond a small relative tolerance. In adaptive mode
  /// the store is stale by design, so only finiteness is checked.
  bool delta_w_synced = false;
  double sim_time = 0.0;
  std::uint64_t events = 0;
  /// Peak Fenwick total since the tree was last rebuilt. Incremental-update
  /// residue is bounded by eps * ops * THIS scale — channel rates swing many
  /// orders of magnitude within a refresh window, so drift must be judged
  /// against the peak, not the (possibly tiny, deep-blockade) current total.
  double rate_scale = 0.0;
};

class InvariantAuditor {
 public:
  InvariantAuditor() = default;
  explicit InvariantAuditor(const AuditOptions& options) : options_(options) {}

  const IntegrityReport& report() const noexcept { return report_; }

  /// True when the engine should call audit() at this event count.
  bool due(std::uint64_t events) const noexcept {
    return options_.enabled && events % options_.resolved_interval() == 0;
  }

  /// (Re)starts the wall-clock watchdog and the progress tracker. The
  /// engine calls this on reset/restore/rebase and whenever the bias point
  /// changes, so the budget applies per run unit, not per process.
  void arm(double sim_time, std::uint64_t events);

  /// Runs every check against `view`. Records the first failed check in
  /// the report and throws it (InvariantViolation or TimeoutError).
  void audit(const AuditView& view);

  /// Clears recorded issues and counters (engine reset).
  void clear();
  /// Continues the audit trail of a restored run.
  void restore(const IntegrityReport& report) { report_ = report; }

 private:
  void check_rates(const AuditView& view);
  void check_delta_w(const AuditView& view);
  void check_potentials(const AuditView& view);
  void check_fenwick(const AuditView& view);
  void check_charge(const AuditView& view);
  void check_progress(const AuditView& view);
  void check_watchdog(const AuditView& view);

  [[noreturn]] void fail(ErrorCode code, const AuditView& view,
                         const std::string& detail);

  AuditOptions options_;
  IntegrityReport report_;
  std::vector<double> charge_scratch_;  // reused across audits (no per-audit alloc)
  std::chrono::steady_clock::time_point armed_at_{};
  bool watchdog_armed_ = false;
  double last_progress_time_ = 0.0;
  std::uint64_t last_progress_event_ = 0;
};

}  // namespace semsim
