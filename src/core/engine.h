// The SEMSIM Monte-Carlo engine (paper Fig. 3 process flow).
//
// Each iteration simulates one tunnel event:
//   1. the event solver draws the waiting time dt = -ln(r)/Gamma_sum (Eq. 5),
//      honouring source-waveform breakpoints (rates are piecewise constant);
//   2. a channel is sampled with probability proportional to its rate from a
//      Fenwick tree over all channels (single-electron/quasi-particle pairs
//      per junction, Cooper-pair pairs per junction when superconducting,
//      one per directed cotunneling path when enabled);
//   3. the event is applied to the charge state;
//   4. rates are updated by the ADAPTIVE solver (Algorithm 1: only flagged
//      junctions recomputed, potentials synchronized lazily) or by the
//      NON-ADAPTIVE solver (every potential and every rate recomputed), per
//      EngineOptions. Superconducting and cotunneling channels always take
//      the non-adaptive path, as in the paper.
//
// Island potentials follow the paper's selective-update scheme: the engine
// keeps a potential cache that is updated EXACTLY for every island after
// each event in non-adaptive mode, but only for the nodes of tested
// junctions in adaptive mode — distant potentials drift by design, bounded
// by the same locality argument as the rates, and the periodic full refresh
// (options.adaptive.refresh_interval) recomputes everything from scratch.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/fenwick.h"
#include "base/random.h"
#include "guard/fault.h"
#include "guard/integrity.h"
#include "core/adaptive_solver.h"
#include "core/options.h"
#include "core/rate_calculator.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"

namespace semsim {

/// One executed tunnel event.
struct Event {
  enum class Kind : std::uint8_t { kSingleElectron, kCooperPair, kCotunneling };
  Kind kind = Kind::kSingleElectron;
  std::size_t index = 0;  ///< junction index, or cotunneling path index
  NodeId from = 0;        ///< net charge source node
  NodeId to = 0;          ///< net charge destination node
  double charge = 0.0;    ///< transferred charge [C] (-e, -2e)
  double dt = 0.0;        ///< waiting time before this event [s]
  double time = 0.0;      ///< simulation time after the event [s]
};

/// Portable engine state for crash-safe checkpoint/resume (serialized by
/// obs/checkpoint.h). A snapshot is taken AFTER a canonicalizing full
/// refresh, so the derived caches (island potentials, channel rates,
/// adaptive drift accumulators, Fenwick prefix sums) are exact functions of
/// the fields below: restore() + the same refresh reproduces the in-memory
/// state bit for bit, and continuing from a snapshot is bitwise identical
/// to continuing the run that took it.
struct EngineSnapshot {
  std::array<std::uint64_t, 4> rng{};  ///< xoshiro256++ stream state
  double time = 0.0;                   ///< simulation clock [s]
  /// Stored verbatim, NOT recomputed on restore: an already-processed
  /// waveform edge sitting exactly at `time` would otherwise be reprocessed,
  /// consuming one extra RNG draw and desynchronizing the stream.
  double next_breakpoint = 0.0;
  std::vector<long> electrons;             ///< per island index
  std::vector<double> transferred_e;       ///< per junction
  std::vector<double> v_ext;               ///< per external index
  std::vector<std::uint8_t> overridden;    ///< set_dc_source flags
  SolverStats stats;
  IntegrityReport integrity;  ///< audit trail so far; restore() resumes it
};

/// The quasi-particle rate table an engine over `circuit` with `options`
/// builds: Eq. 3 at 1 Ohm over options.qp_table_half_range or, by default,
/// a range wide enough for every free-energy change the run can reach.
/// nullptr for a normal circuit or a vanished gap, and for a configuration
/// the engine itself rejects (each unit engine then rejects it inside its
/// own fault isolation). Multi-unit runs build it once, beside their
/// shared ElectrostaticModel, and pass it to every unit engine.
std::shared_ptr<const QuasiparticleRate> build_qp_table(
    const Circuit& circuit, const ElectrostaticModel& model,
    const EngineOptions& options);

class Engine {
 public:
  /// The circuit must outlive the engine. `shared_model` and
  /// `shared_qp_table` carry set-up that every engine of a run (sweep
  /// chunks, repeats, replicas, retries, adaptive vs non-adaptive
  /// comparisons) would otherwise repeat; pass nullptr to build privately.
  ///   * `shared_model`: one capacitance-matrix inversion, which dominates
  ///     set-up for the large Fig. 6 benchmarks. It must be the model of a
  ///     circuit with this circuit's capacitances.
  ///   * `shared_qp_table`: one quasi-particle table (build_qp_table), which
  ///     dominates set-up for a superconducting circuit. It is adopted only
  ///     when its gap, temperature and range equal this engine's bit for
  ///     bit; otherwise the engine builds its own, so a replica with a
  ///     perturbed temperature or capacitance stays correct with any table.
  Engine(const Circuit& circuit, EngineOptions options,
         std::shared_ptr<const ElectrostaticModel> shared_model = nullptr,
         std::shared_ptr<const QuasiparticleRate> shared_qp_table = nullptr);

  // ---- state ---------------------------------------------------------------

  double time() const noexcept { return time_; }
  std::uint64_t event_count() const noexcept { return stats_.events; }

  /// Excess electrons currently on island `n`.
  long electron_count(NodeId n) const;

  /// Potential of node `n` (externals return the source value; ground 0).
  /// Island values are exact in non-adaptive mode; in adaptive mode they
  /// carry the bounded selective-update drift described above.
  double node_voltage(NodeId n) const;

  /// Cumulative charge transported through junction `j` in the a->b
  /// direction, in units of e (an electron a->b contributes -1, a Cooper
  /// pair -2; cotunneling counts through both junctions it crosses).
  double junction_transferred_e(std::size_t j) const { return transferred_e_.at(j); }

  /// Sum of all channel rates [1/s].
  double total_rate() const { return rates_.total(); }

  /// Next source-waveform edge after `time()`; +inf for DC-only drive.
  /// A stuck engine (total rate 0) with no finite breakpoint can never
  /// fire again — the partitioned runner uses this to tell "idle until a
  /// source edge" from "exhausted forever".
  double next_breakpoint() const noexcept { return next_breakpoint_; }

  /// Rate of one directed single-electron channel (diagnostics/tests).
  double junction_rate(std::size_t j, bool forward) const {
    return rates_.value(2 * j + (forward ? 0 : 1));
  }

  /// Work counters for the Fig. 6 cost analysis.
  const SolverStats& stats() const noexcept { return stats_; }

  /// Audit trail of the periodic integrity checks (guard/integrity.h):
  /// audits run and any violations detected before the corresponding throw.
  const IntegrityReport& integrity_report() const noexcept {
    return auditor_.report();
  }

  const ElectrostaticModel& model() const noexcept { return model_; }
  const Circuit& circuit() const noexcept { return circuit_; }
  const RateCalculator& rate_calculator() const noexcept { return calc_; }

  // ---- control --------------------------------------------------------------

  /// Returns the engine to t = 0 with all islands neutral, reseeding the RNG.
  void reset(std::uint64_t seed);

  /// Captures the engine state for checkpointing. Canonicalizing: performs
  /// a full refresh first (exact potentials, all rates recomputed, adaptive
  /// drift discharged), so the caches need not be serialized and the run
  /// that continues after snapshot() evolves identically to one restored
  /// from it. In adaptive mode the refresh perturbs subsequent evolution
  /// relative to a run that never snapshots, so the sequential drivers
  /// snapshot at their milestones on every run (analysis/units.h).
  EngineSnapshot snapshot();

  /// Restores a snapshot taken from an engine over the same circuit and
  /// options. Throws Error when the snapshot's shape does not match.
  void restore(const EngineSnapshot& s);

  /// Overwrites the electron counts of the given islands and refreshes all
  /// potentials and rates. Used to start logic simulations near their DC
  /// operating point instead of paying a long settling transient.
  void set_electron_counts(const std::vector<std::pair<NodeId, long>>& counts);

  /// Resets the simulation clock to 0 without touching the charge state.
  /// Long waits in deep blockade can push t to ~1e17 s, after which ns-scale
  /// waiting times vanish in double precision; bias sweeps rebase between
  /// points. Only legal when no source waveform has future breakpoints
  /// (throws otherwise, since breakpoints are absolute times).
  void rebase_time();

  /// Replaces the source on external node `n` with DC `volts`: the
  /// one-lead call of set_dc_sources. This is how sweeps move between bias
  /// points without rebuilding the engine.
  void set_dc_source(NodeId n, double volts);

  /// Overrides every listed external lead with its DC value, then performs
  /// ONE exact full update (and one breakpoint refresh / watchdog re-arm)
  /// for the whole batch; the full recompute depends only on the final
  /// source values. The partitioned runner uses this to synchronize every
  /// boundary potential of a cluster at a window barrier.
  void set_dc_sources(const std::vector<std::pair<NodeId, double>>& sources);

  /// Executes one tunnel event. Returns false when no event can ever occur
  /// (all rates zero and no future source breakpoints) — the caller decides
  /// what that means (deep Coulomb blockade at T = 0 is a physical outcome).
  bool step(Event* out = nullptr);

  /// Runs up to `n` events; returns how many actually executed.
  std::uint64_t run_events(std::uint64_t n);

  /// Runs until simulated time reaches `t_end`: the final partial waiting
  /// time advances the clock without an event, so a finite `t_end` is
  /// always reached, also by an engine that can never fire again (in deep
  /// blockade time passes without events). Only an infinite `t_end` can
  /// leave the clock short, when no event can ever occur.
  void run_until(double t_end);

  /// Called after every executed event.
  void set_event_callback(std::function<void(const Engine&, const Event&)> cb) {
    callback_ = std::move(cb);
  }

 private:
  // Channel layout in the Fenwick tree:
  //   [0, 2J)      single-electron / quasi-particle, (fwd, bwd) per junction
  //   [2J, 4J)     Cooper pair (superconducting only)
  //   [4J, 4J+P)   directed cotunneling paths
  enum class StepOutcome : std::uint8_t { kExecuted, kReachedLimit, kStuck };

  std::size_t channel_count() const noexcept;
  StepOutcome step_internal(double t_limit, Event* out);
  /// Re-derives the interval countdowns from stats_.events.
  void resync_schedules();
  void handle_source_deltas();  // consumes pending_changes_
  /// Exact island potentials from scratch + every channel rate.
  void full_update();
  /// Every channel rate from the current potential cache.
  void recompute_all_rates();
  /// Exact O(islands) potential update for one charge move.
  void apply_charge_move_everywhere(NodeId from, NodeId to, double q);
  /// Recomputes the channels of every junction in flagged_buf_ and commits
  /// them to the Fenwick tree in one set_many batch (adaptive path only).
  void commit_flagged_rates();
  void recompute_secondary();  // CP + cotunneling channels (non-adaptive)
  void apply_event(std::size_t channel, Event& ev);
  void after_charge_move(NodeId from, NodeId to, double q);
  /// Runs the invariant auditor against the current state (throws a coded
  /// InvariantViolation / TimeoutError on a failed check).
  void run_audit();
  /// Applies one injected fault (tests/bench only; guard/fault.h).
  void apply_fault(const FaultSpec& f);
  /// Re-anchors the charge-conservation baselines to the current state
  /// (reset / restore / set_electron_counts legitimately change electron
  /// counts without tunnel events).
  void rebaseline_audit();
  double refresh_next_breakpoint() const;
  void island_charges_into(std::vector<double>& q) const;

  const Circuit& circuit_;
  EngineOptions options_;
  std::shared_ptr<const ElectrostaticModel> model_holder_;
  const ElectrostaticModel& model_;
  RateCalculator calc_;
  AdaptiveSolver adaptive_;
  FenwickTree rates_;
  Xoshiro256 rng_;

  bool adaptive_active_ = false;  // false for SC circuits or when disabled
  bool has_secondary_ = false;    // CP or cotunneling channels present
  bool fast_rates_ = false;       // opt-in polynomial thermal kernel
  std::uint64_t refresh_interval_ = 1000;  // resolved from options (0 = auto)
  // Countdown twins of the interval schedules: `events % interval == 0`
  // costs a 64-bit division per event in the hot loop, a decrement does
  // not. Resynced from stats_.events wherever that counter is overwritten
  // (construction, reset, restore) so the firing events are identical.
  std::uint64_t until_refresh_ = 0;
  std::uint64_t until_audit_ = 0;  // stays 0 when auditing is disabled

  double time_ = 0.0;
  double next_breakpoint_ = 0.0;
  struct SourceChange {
    NodeId node = 0;
    std::size_t ext = 0;
    double dv = 0.0;
  };

  std::vector<long> electrons_;       // per island index
  // ---- SoA hot-path node/channel state (see DESIGN.md) --------------------
  // One contiguous potential array: slots [0, I) are the island potential
  // cache (see header comment), [I, I+E) the external lead voltages, and
  // slot I+E is ground, pinned at 0 V. Junction endpoints are resolved to
  // slots ONCE at construction (slot_a_/slot_b_, cotunneling triples in
  // cot_slot_), so the event loop reads voltages as v[slot] with no
  // NodeId -> island/external index resolution per channel.
  std::size_t n_isl_ = 0;
  std::size_t n_ext_ = 0;
  std::vector<double> node_v_;
  std::vector<std::uint32_t> slot_a_;     // per junction: slot of node a
  std::vector<std::uint32_t> slot_b_;     // per junction: slot of node b
  std::vector<std::uint32_t> cot_slot_;   // per path: from, via, to slots
  std::vector<double> charge_buf_;        // full_update island-charge scratch
  // Persistent per-channel ΔW store for the single-electron/QP channels:
  // delta_w_[2j] / delta_w_[2j+1] are junction j's forward/backward
  // free-energy changes AT THE LAST RECALCULATION of that junction. One
  // fused SoA pass (RateCalculator::delta_w_batch) refreshes every entry
  // per event in non-adaptive mode; in adaptive mode only flagged entries
  // refresh between periodic full updates. The array triple-serves as the
  // batch rate kernel's input, the adaptive solver's dW' staleness store
  // (bound via bind_delta_w — never reallocate this vector), and the
  // integrity auditor's delta_w view.
  std::vector<double> delta_w_;
  std::vector<double> fen_val_;  // fused flagged-commit rate pairs (2/junction)
  std::vector<bool> overridden_;      // per external index (set_dc_source)
  std::vector<SourceChange> pending_changes_;
  // Per-event memoization of island potential deltas (adaptive path).
  std::vector<std::uint64_t> node_epoch_;
  std::vector<double> node_dv_;
  std::vector<std::size_t> touched_nodes_;
  std::uint64_t epoch_ = 0;
  std::vector<double> transferred_e_; // per junction
  std::vector<std::size_t> seed_buf_;
  std::vector<std::size_t> flagged_buf_;
  std::vector<double> rate_buf_;
  // Junctions to seed when external node (by external index) steps:
  std::vector<std::vector<std::size_t>> source_seed_junctions_;
  SolverStats stats_;
  std::function<void(const Engine&, const Event&)> callback_;

  // ---- integrity layer (guard) --------------------------------------------
  InvariantAuditor auditor_;
  FaultInjector fault_;
  std::uint64_t audit_interval_ = 0;  // 0 = auditing disabled
  double audit_peak_total_ = 0.0;     // peak rate total since last rebuild
  bool stall_clock_ = false;          // injected kStallClock fault latched
  std::vector<long> audit_base_electrons_;      // per island
  std::vector<double> audit_base_transferred_;  // per junction
};

}  // namespace semsim
