// Domain-decomposed single-run execution.
//
// Large SET circuits — the ISCAS-scale logic fabrics of the paper's Fig. 6
// regime — are mostly *weakly* coupled: a gate's islands interact strongly
// with each other (junction capacitances, tens of aF) but only through
// ~0.5 aF wire couplers with the next gate, two orders of magnitude below
// the ~23 aF self-capacitance. The non-adaptive solver nevertheless pays
// O(total junctions) per event. This module exploits the structure
// directly: partition the junction graph into weakly-coupled clusters, give
// each cluster its own sub-circuit, Fenwick tree, RNG stream and event
// clock, and advance the clusters under conservative time windowing —
// every cluster runs freely to the shared window horizon, then all
// boundary potentials are synchronized at a barrier before the next window
// opens. A cut capacitor is replaced, on each side, by a *boundary
// external node* whose DC source mirrors the remote island's potential at
// the last barrier (mean-field across the cut; exact in the
// zero-cut-coupling limit, first-order in kappa_cut otherwise).
//
// A barrier moves each mirror by its delta the way a waveform edge moves a
// lead (Engine::step_dc_sources); only construction synchronizes with a
// full update per cluster. Windows are short (~32 events per cluster on the
// benchmark fabric), so a full update per cluster per barrier would cost
// more than the events.
//
// Determinism contract (tested in tests/test_partition.cpp):
//   * The plan, the sub-circuits, the per-cluster seeds
//     (derive_stream_seed(seed, cluster)) and the window horizons
//     ((w+1) * window) are pure functions of (circuit, spec, seed) — never
//     of the thread count. A k-cluster run is bitwise reproducible at any
//     thread count.
//   * A 1-cluster plan (requested 1, or a graph the planner refuses to
//     cut) does NOT window: windowing ends each slice on the kReachedLimit
//     path of step_internal, which draws and then discards one exponential
//     waiting time, consuming RNG that a solo Engine would have kept.
//     Instead the single cluster advances in run_events() chunks — pure
//     step() calls — so the trajectory is bitwise identical to a solo
//     Engine over the same circuit and seed.
//   * Every window barrier audits cross-cut charge conservation per
//     cluster: the change in total island electrons must equal the signed
//     change in junction transfer counts (throws kChargeNotConserved
//     otherwise — this is what catches a fault-injected kCorruptCharge
//     leaking across a window).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_pool.h"
#include "core/engine.h"
#include "core/partition_spec.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"

namespace semsim {

/// The island->cluster assignment plus everything the runner and the
/// result document report about it. Built by build_partition_plan();
/// a pure function of (circuit, model, spec).
struct PartitionPlan {
  /// Effective cluster count: min(spec.clusters, weakly-coupled
  /// components). Never cuts a strongly-coupled component.
  std::uint32_t clusters = 1;
  /// Owning cluster per island index (ElectrostaticModel island order).
  std::vector<std::uint32_t> island_cluster;
  /// Owning cluster per global junction index. A junction with at least
  /// one island endpoint belongs to that island's cluster (both-island
  /// junctions always share a cluster: junction pairs are glued
  /// unconditionally — tunneling cannot be mirrored). Lead-to-lead
  /// junctions go to cluster 0.
  std::vector<std::uint32_t> junction_cluster;
  /// Weakly-coupled components found before packing.
  std::size_t components = 0;
  /// Island-island capacitors whose endpoints landed in different
  /// clusters (each becomes two boundary mirrors).
  std::size_t cut_capacitors = 0;
  /// Largest normalized coupling |k_ij| / sqrt(k_ii k_jj) across any cut
  /// pair; 0 when nothing is cut. Diagnostic for the mean-field error.
  double max_cut_coupling = 0.0;
};

/// Clusters the islands with a union-find over two glue relations —
/// (a) island pairs joined by a tunnel junction, (b) island pairs whose
/// normalized kappa coupling exceeds spec.coupling_threshold (scanning
/// only the banded nonzero extent of each kappa row) — then packs the
/// resulting components onto min(spec.clusters, components) clusters,
/// balancing by junction count (largest component first, ties by smallest
/// island id; each goes to the least-loaded cluster, ties to the lowest
/// index). Deterministic.
PartitionPlan build_partition_plan(const Circuit& circuit,
                                   const ElectrostaticModel& model,
                                   const PartitionSpec& spec);

/// A set of per-cluster engines advancing one global trajectory under
/// conservative time windowing. Construction materializes one sub-circuit
/// and one Engine per cluster; the global circuit and executor must
/// outlive this object.
class PartitionedEngine {
 public:
  /// `base` is the solo engine configuration; cluster c runs on seed
  /// derive_stream_seed(base.seed, c) (base.seed itself when the plan has
  /// one cluster, preserving bitwise equality with a solo engine) and
  /// fault stream base.fault.for_unit(c, attempt 0). `exec` may be null
  /// only for 1-cluster plans.
  PartitionedEngine(const Circuit& circuit, const ElectrostaticModel& model,
                    const EngineOptions& base, const PartitionSpec& spec,
                    const ParallelExecutor* exec);

  std::uint32_t clusters() const noexcept { return plan_.clusters; }

  /// Shared simulation clock: the last synchronized horizon (k > 1), or
  /// the single cluster's clock (k == 1). Only meaningful at barriers.
  double time() const;
  /// Total events executed across all clusters.
  std::uint64_t total_events() const;
  /// Sum of every cluster's total channel rate (window auto-sizing).
  double total_rate() const;

  /// Window length [s] in effect: spec.window, or the auto value derived
  /// at construction from the initial total rate (~256 events per cluster
  /// per window). Unused (0) for 1-cluster plans.
  double window() const noexcept { return window_; }

  /// Advances one synchronization step and returns the events it
  /// executed. k > 1: every cluster runs to the next shared horizon (a
  /// stuck cluster's clock reaches it too, RNG-free), then boundary
  /// potentials are exchanged read-all-then-write-all and the cross-cut
  /// charge audit runs. k == 1: the cluster executes up to
  /// `solo_chunk_events` plain steps (no windowing; see header comment).
  std::uint64_t advance_window(std::uint64_t solo_chunk_events);

  /// True when no cluster can ever fire again: at a barrier (after the
  /// boundary sync), every cluster has every channel rate at exactly zero
  /// (Engine::has_open_channel, a scan of the values: the tree total can
  /// keep a rounding residue) and no finite source breakpoint left to
  /// revive it. A merely *idle* window (a future waveform edge, or a
  /// boundary potential a neighbour still moves) keeps this false.
  bool exhausted() const;

  /// Cumulative a->b transfer count of GLOBAL junction j, routed to the
  /// owning cluster's engine.
  double junction_transferred_e(std::size_t global_j) const;

  /// Canonicalizing per-cluster snapshots in cluster order (each is an
  /// Engine::snapshot(), so taking one performs the engine's exact full
  /// update — call at the same milestones on every code path that must
  /// stay bitwise comparable).
  std::vector<EngineSnapshot> snapshot_clusters();
  /// Restores cluster states and re-anchors window index + audit
  /// baselines. `windows_done` is the advance_window() count at which the
  /// snapshots were taken.
  void restore_clusters(const std::vector<EngineSnapshot>& snaps,
                        std::uint64_t windows_done);

  std::uint64_t windows_done() const noexcept { return windows_done_; }

  /// Work counters / audit trail summed over clusters in index order.
  SolverStats merged_stats() const;
  IntegrityReport merged_integrity() const;

 private:
  /// One cut capacitor endpoint mirrored into this cluster.
  struct BoundaryTie {
    NodeId local_ext = 0;        ///< boundary external node in this cluster
    std::uint32_t remote_cluster = 0;
    NodeId remote_local = 0;     ///< the mirrored island, remote-local id
  };

  struct Cluster {
    Circuit circuit;
    std::unique_ptr<Engine> engine;
    std::vector<BoundaryTie> ties;
    /// The barrier's (mirror, potential) list, one entry per tie: reused,
    /// so a barrier allocates nothing.
    std::vector<std::pair<NodeId, double>> mirror_updates;
    /// Signed weight per local junction for the charge audit:
    /// [a is island] - [b is island].
    std::vector<double> junction_weight;
    /// Local island node ids (audit iteration order).
    std::vector<NodeId> local_islands;
    /// Audit baselines at the last barrier.
    long base_electrons = 0;
    double base_weighted_transfer = 0.0;
  };

  /// Moves every boundary mirror to its remote island's potential,
  /// read-all-then-write-all: with one full update per cluster when
  /// `exact` (construction), else through Engine::step_dc_sources.
  void sync_boundaries(bool exact);
  void audit_charge(std::uint64_t window_index);
  long sum_electrons(const Cluster& cl) const;
  double sum_weighted_transfer(const Cluster& cl) const;
  void rebaseline(Cluster& cl) const;

  PartitionPlan plan_;
  const ParallelExecutor* exec_ = nullptr;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  /// Global junction -> (cluster, local junction index).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> junction_map_;
  double window_ = 0.0;
  std::uint64_t windows_done_ = 0;
};

}  // namespace semsim
