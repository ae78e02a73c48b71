#include "core/partition.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "base/error.h"
#include "base/random.h"

namespace semsim {

namespace {

/// Plain union-find with path halving; deterministic by construction.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller root index wins, so component roots are stable ids.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Normalized coupling strength |k_ij| / sqrt(k_ii k_jj) of two islands.
double normalized_kappa(const ElectrostaticModel& model, std::size_t i,
                        std::size_t j) {
  const double kij = model.kappa_row(i)[j];
  const double kii = model.kappa_row(i)[i];
  const double kjj = model.kappa_row(j)[j];
  const double denom = std::sqrt(kii * kjj);
  return denom > 0.0 ? std::abs(kij) / denom : 0.0;
}

}  // namespace

PartitionPlan build_partition_plan(const Circuit& circuit,
                                   const ElectrostaticModel& model,
                                   const PartitionSpec& spec) {
  spec.validate();
  const std::size_t n_isl = model.island_count();
  PartitionPlan plan;
  plan.island_cluster.assign(n_isl, 0);
  plan.junction_cluster.assign(circuit.junction_count(), 0);

  if (n_isl == 0) {
    plan.clusters = 1;
    plan.components = 1;
    return plan;
  }

  DisjointSets sets(n_isl);
  // (a) Tunneling cannot be mirrored across a cut: junction-joined island
  // pairs always share a cluster.
  for (const Junction& j : circuit.junctions()) {
    const int ka = model.island_index(j.a);
    const int kb = model.island_index(j.b);
    if (ka >= 0 && kb >= 0) {
      sets.unite(static_cast<std::size_t>(ka), static_cast<std::size_t>(kb));
    }
  }
  // (b) Strong capacitive coupling (through any path — kappa already folds
  // the whole capacitance network) glues a pair too. Only the banded
  // nonzero extent of each row needs scanning.
  for (std::size_t i = 0; i < n_isl; ++i) {
    const std::size_t e = model.row_end(i);
    for (std::size_t j = std::max(model.row_begin(i), i + 1); j < e; ++j) {
      if (normalized_kappa(model, i, j) > spec.coupling_threshold) {
        sets.unite(i, j);
      }
    }
  }

  // Components in order of their smallest island index.
  std::vector<int> comp_of_root(n_isl, -1);
  std::vector<std::size_t> comp_min_island;
  std::vector<std::uint64_t> comp_junctions;
  std::vector<int> island_comp(n_isl, -1);
  for (std::size_t i = 0; i < n_isl; ++i) {
    const std::size_t r = sets.find(i);
    if (comp_of_root[r] < 0) {
      comp_of_root[r] = static_cast<int>(comp_min_island.size());
      comp_min_island.push_back(i);
      comp_junctions.push_back(0);
    }
    island_comp[i] = comp_of_root[r];
  }
  plan.components = comp_min_island.size();
  for (const Junction& j : circuit.junctions()) {
    const int ka = model.island_index(j.a);
    const int kb = model.island_index(j.b);
    const int k = ka >= 0 ? ka : kb;
    if (k >= 0) ++comp_junctions[island_comp[static_cast<std::size_t>(k)]];
  }

  // Greedy balanced packing: largest component (by junction count, ties by
  // smallest island id) first, each onto the least-loaded cluster (ties to
  // the lowest cluster index). Deterministic.
  const std::uint32_t bins = static_cast<std::uint32_t>(
      std::min<std::size_t>(spec.clusters, plan.components));
  plan.clusters = std::max<std::uint32_t>(bins, 1);
  std::vector<std::size_t> order(plan.components);
  for (std::size_t c = 0; c < plan.components; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (comp_junctions[a] != comp_junctions[b])
      return comp_junctions[a] > comp_junctions[b];
    return comp_min_island[a] < comp_min_island[b];
  });
  std::vector<std::uint64_t> load(plan.clusters, 0);
  std::vector<std::uint32_t> comp_cluster(plan.components, 0);
  for (const std::size_t c : order) {
    std::uint32_t best = 0;
    for (std::uint32_t b = 1; b < plan.clusters; ++b) {
      if (load[b] < load[best]) best = b;
    }
    comp_cluster[c] = best;
    load[best] += comp_junctions[c];
  }
  for (std::size_t i = 0; i < n_isl; ++i) {
    plan.island_cluster[i] = comp_cluster[island_comp[i]];
  }

  // Junction ownership: the island endpoint's cluster (both-island pairs
  // agree by glue (a)); lead-to-lead junctions fall to cluster 0.
  for (std::size_t j = 0; j < circuit.junction_count(); ++j) {
    const Junction& jn = circuit.junction(j);
    const int ka = model.island_index(jn.a);
    const int kb = model.island_index(jn.b);
    const int k = ka >= 0 ? ka : kb;
    plan.junction_cluster[j] =
        k >= 0 ? plan.island_cluster[static_cast<std::size_t>(k)] : 0;
  }

  // Cut census: island-island capacitors whose endpoints were packed into
  // different clusters. All such pairs are at or below the threshold by
  // construction of glue (b).
  for (const Capacitor& c : circuit.capacitors()) {
    const int ka = model.island_index(c.a);
    const int kb = model.island_index(c.b);
    if (ka < 0 || kb < 0) continue;
    const std::size_t ia = static_cast<std::size_t>(ka);
    const std::size_t ib = static_cast<std::size_t>(kb);
    if (plan.island_cluster[ia] == plan.island_cluster[ib]) continue;
    ++plan.cut_capacitors;
    plan.max_cut_coupling =
        std::max(plan.max_cut_coupling, normalized_kappa(model, ia, ib));
  }
  return plan;
}

PartitionedEngine::PartitionedEngine(const Circuit& circuit,
                                     const ElectrostaticModel& model,
                                     const EngineOptions& base,
                                     const PartitionSpec& spec,
                                     const ParallelExecutor* exec)
    : plan_(build_partition_plan(circuit, model, spec)), exec_(exec) {
  require(plan_.clusters == 1 || exec_ != nullptr,
          "partition: a multi-cluster run needs an executor");
  const std::size_t n_nodes = circuit.node_count();
  const std::uint32_t k = plan_.clusters;
  const NodeId kNone = -1;

  clusters_.reserve(k);
  for (std::uint32_t c = 0; c < k; ++c) {
    clusters_.push_back(std::make_unique<Cluster>());
  }
  // global node id -> local node id, per cluster (kNone = absent).
  std::vector<std::vector<NodeId>> to_local(
      k, std::vector<NodeId>(n_nodes, kNone));
  junction_map_.assign(circuit.junction_count(), {0, 0});

  // Which global externals each cluster actually references. Copying only
  // those keeps the per-cluster C_IE slab (and every full update) sized to
  // the cluster, not to the whole fabric.
  std::vector<std::vector<bool>> ext_used(k,
                                          std::vector<bool>(n_nodes, false));
  auto mark_ext = [&](std::uint32_t cl, NodeId n) {
    if (n != Circuit::kGroundNode && !circuit.is_island(n))
      ext_used[cl][static_cast<std::size_t>(n)] = true;
  };
  auto cluster_of_island = [&](NodeId n) -> int {
    const int ki = model.island_index(n);
    return ki < 0 ? -1
                  : static_cast<int>(
                        plan_.island_cluster[static_cast<std::size_t>(ki)]);
  };
  for (std::size_t j = 0; j < circuit.junction_count(); ++j) {
    const Junction& jn = circuit.junction(j);
    const std::uint32_t cl = plan_.junction_cluster[j];
    mark_ext(cl, jn.a);
    mark_ext(cl, jn.b);
  }
  for (const Capacitor& cp : circuit.capacitors()) {
    const int ca = cluster_of_island(cp.a);
    const int cb = cluster_of_island(cp.b);
    if (ca >= 0) mark_ext(static_cast<std::uint32_t>(ca), cp.b);
    if (cb >= 0) mark_ext(static_cast<std::uint32_t>(cb), cp.a);
  }

  // Nodes, in global id order (externals carry their source waveform,
  // islands their background charge).
  for (std::size_t n = 1; n < n_nodes; ++n) {
    const NodeId g = static_cast<NodeId>(n);
    if (circuit.is_island(g)) {
      const std::uint32_t cl = static_cast<std::uint32_t>(cluster_of_island(g));
      Cluster& cu = *clusters_[cl];
      const NodeId local = cu.circuit.add_island(circuit.node(g).name);
      cu.circuit.set_background_charge(local, circuit.background_charge_e(g));
      cu.local_islands.push_back(local);
      to_local[cl][n] = local;
    } else {
      for (std::uint32_t cl = 0; cl < k; ++cl) {
        if (!ext_used[cl][n]) continue;
        Cluster& cu = *clusters_[cl];
        const NodeId local = cu.circuit.add_external(circuit.node(g).name);
        cu.circuit.set_source(local, circuit.source(g));
        to_local[cl][n] = local;
      }
    }
  }

  auto local_node = [&](std::uint32_t cl, NodeId g) -> NodeId {
    if (g == Circuit::kGroundNode) return Circuit::kGroundNode;
    const NodeId l = to_local[cl][static_cast<std::size_t>(g)];
    require(l != kNone, "partition: internal node mapping hole");
    return l;
  };

  // Junctions, in global index order.
  for (std::size_t j = 0; j < circuit.junction_count(); ++j) {
    const Junction& jn = circuit.junction(j);
    const std::uint32_t cl = plan_.junction_cluster[j];
    Cluster& cu = *clusters_[cl];
    const std::size_t local = cu.circuit.add_junction(
        local_node(cl, jn.a), local_node(cl, jn.b), jn.resistance,
        jn.capacitance);
    junction_map_[j] = {cl, static_cast<std::uint32_t>(local)};
    const double wa = circuit.is_island(jn.a) ? 1.0 : 0.0;
    const double wb = circuit.is_island(jn.b) ? 1.0 : 0.0;
    cu.junction_weight.push_back(wa - wb);
  }

  // Capacitors. A cut island-island capacitor is mirrored on each side as
  // a boundary external node carrying the remote island's last
  // synchronized potential; every other capacitor is copied verbatim into
  // the cluster(s) owning its island endpoint(s).
  struct PendingTie {
    std::uint32_t cluster;
    NodeId local_ext;
    NodeId remote_global;
  };
  std::vector<PendingTie> pending;
  // One boundary node per (cluster, remote global island), shared by all
  // cut capacitors between the pair.
  std::vector<std::map<NodeId, NodeId>> boundary_node(k);
  auto boundary_for = [&](std::uint32_t cl, NodeId remote_g) -> NodeId {
    auto it = boundary_node[cl].find(remote_g);
    if (it != boundary_node[cl].end()) return it->second;
    Cluster& cu = *clusters_[cl];
    const NodeId local = cu.circuit.add_external(
        "@bnd" + std::to_string(static_cast<long>(remote_g)));
    // DC 0 placeholder; the initial sync below overwrites it before any
    // event fires.
    boundary_node[cl].emplace(remote_g, local);
    pending.push_back({cl, local, remote_g});
    return local;
  };
  for (std::size_t ci = 0; ci < circuit.capacitor_count(); ++ci) {
    const Capacitor& cp = circuit.capacitor(ci);
    const int ca = cluster_of_island(cp.a);
    const int cb = cluster_of_island(cp.b);
    if (ca < 0 && cb < 0) continue;  // couples no island: inert
    if (ca >= 0 && cb >= 0 && ca != cb) {
      clusters_[ca]->circuit.add_capacitor(
          local_node(static_cast<std::uint32_t>(ca), cp.a),
          boundary_for(static_cast<std::uint32_t>(ca), cp.b), cp.capacitance);
      clusters_[cb]->circuit.add_capacitor(
          local_node(static_cast<std::uint32_t>(cb), cp.b),
          boundary_for(static_cast<std::uint32_t>(cb), cp.a), cp.capacitance);
      continue;
    }
    const std::uint32_t cl = static_cast<std::uint32_t>(ca >= 0 ? ca : cb);
    clusters_[cl]->circuit.add_capacitor(local_node(cl, cp.a),
                                         local_node(cl, cp.b),
                                         cp.capacitance);
  }

  for (const PendingTie& p : pending) {
    const std::uint32_t rc =
        static_cast<std::uint32_t>(cluster_of_island(p.remote_global));
    clusters_[p.cluster]->ties.push_back(
        {p.local_ext, rc, local_node(rc, p.remote_global)});
  }

  // Engines: per-cluster RNG stream and fault unit. The 1-cluster plan
  // keeps the base seed so the trajectory is bitwise the solo engine's.
  for (std::uint32_t c = 0; c < k; ++c) {
    Cluster& cu = *clusters_[c];
    if (circuit.superconducting()) {
      cu.circuit.set_superconducting(circuit.superconducting_params());
    }
    cu.circuit.validate();
    cu.circuit.build_caches();
    EngineOptions eo = base;
    eo.seed = k > 1 ? derive_stream_seed(base.seed, c) : base.seed;
    eo.fault = base.fault.for_unit(c, 0);
    cu.engine = std::make_unique<Engine>(cu.circuit, eo);
  }

  sync_boundaries();
  for (std::uint32_t c = 0; c < k; ++c) rebaseline(*clusters_[c]);

  if (k > 1) {
    window_ = spec.window;
    if (window_ <= 0.0) {
      const double total = total_rate();
      require(total > 0.0,
              "partition: total rate is zero at t=0; pass an explicit "
              "--partition-window to window a source-driven circuit");
      // ~256 events per cluster per window: coarse enough to amortize the
      // barrier, fine enough for the mean-field boundary to track.
      window_ = 256.0 * static_cast<double>(k) / total;
    }
  }
}

double PartitionedEngine::time() const {
  return clusters_.front()->engine->time();
}

std::uint64_t PartitionedEngine::total_events() const {
  std::uint64_t n = 0;
  for (const auto& cu : clusters_) n += cu->engine->event_count();
  return n;
}

double PartitionedEngine::total_rate() const {
  double r = 0.0;
  for (const auto& cu : clusters_) r += cu->engine->total_rate();
  return r;
}

std::uint64_t PartitionedEngine::advance_window(
    std::uint64_t solo_chunk_events) {
  const std::uint64_t before = total_events();
  if (plan_.clusters == 1) {
    // No windowing: run_events is pure step() calls, so the trajectory —
    // including the RNG stream — is bitwise the solo engine's.
    clusters_.front()->engine->run_events(solo_chunk_events);
  } else {
    // run_until reaches a finite horizon also when a cluster is stuck,
    // so every cluster clock agrees at the barrier.
    const double horizon =
        static_cast<double>(windows_done_ + 1) * window_;
    exec_->for_each(clusters_.size(), [&](std::size_t c) {
      clusters_[c]->engine->run_until(horizon);
    });
    sync_boundaries();
  }
  audit_charge(windows_done_);
  ++windows_done_;
  return total_events() - before;
}

bool PartitionedEngine::exhausted() const {
  for (const auto& cu : clusters_) {
    const Engine& e = *cu->engine;
    if (e.total_rate() != 0.0 || std::isfinite(e.next_breakpoint())) {
      return false;
    }
  }
  return true;
}

void PartitionedEngine::sync_boundaries() {
  // Read-all-then-write-all: every mirror reads the remote potential as
  // of the barrier, never a value another cluster's write just changed.
  std::vector<std::vector<std::pair<NodeId, double>>> updates(
      clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (const BoundaryTie& t : clusters_[c]->ties) {
      updates[c].emplace_back(
          t.local_ext,
          clusters_[t.remote_cluster]->engine->node_voltage(t.remote_local));
    }
  }
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (!updates[c].empty()) {
      clusters_[c]->engine->set_dc_sources(updates[c]);
    }
  }
}

long PartitionedEngine::sum_electrons(const Cluster& cl) const {
  long n = 0;
  for (const NodeId isl : cl.local_islands) {
    n += cl.engine->electron_count(isl);
  }
  return n;
}

double PartitionedEngine::sum_weighted_transfer(const Cluster& cl) const {
  double t = 0.0;
  for (std::size_t j = 0; j < cl.junction_weight.size(); ++j) {
    t += cl.junction_weight[j] * cl.engine->junction_transferred_e(j);
  }
  return t;
}

void PartitionedEngine::rebaseline(Cluster& cl) const {
  cl.base_electrons = sum_electrons(cl);
  cl.base_weighted_transfer = sum_weighted_transfer(cl);
}

void PartitionedEngine::audit_charge(std::uint64_t window_index) {
  // Per cluster, over the closing window: the island electron total may
  // move only by tunneling through the cluster's own junctions —
  // d(sum electrons) == d(sum_j w_j transferred_j), exactly (integer
  // counts, magnitudes far below 2^53). Cut capacitors shift potentials,
  // never charge, so a mismatch means corrupted state (e.g. an injected
  // kCorruptCharge) that must not leak into the next window.
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    Cluster& cl = *clusters_[c];
    const long e_now = sum_electrons(cl);
    const double t_now = sum_weighted_transfer(cl);
    const double de = static_cast<double>(e_now - cl.base_electrons);
    const double dt = t_now - cl.base_weighted_transfer;
    if (de != dt) {
      throw InvariantViolation(
          ErrorCode::kChargeNotConserved,
          "partition: cluster " + std::to_string(c) + " window " +
              std::to_string(window_index) + " electron delta " +
              std::to_string(e_now - cl.base_electrons) +
              " != junction transfer balance " + std::to_string(dt));
    }
    cl.base_electrons = e_now;
    cl.base_weighted_transfer = t_now;
  }
}

double PartitionedEngine::junction_transferred_e(std::size_t global_j) const {
  const auto [cl, local] = junction_map_.at(global_j);
  return clusters_[cl]->engine->junction_transferred_e(local);
}

std::vector<EngineSnapshot> PartitionedEngine::snapshot_clusters() {
  std::vector<EngineSnapshot> snaps;
  snaps.reserve(clusters_.size());
  for (auto& cu : clusters_) snaps.push_back(cu->engine->snapshot());
  return snaps;
}

void PartitionedEngine::restore_clusters(
    const std::vector<EngineSnapshot>& snaps, std::uint64_t windows_done) {
  require(snaps.size() == clusters_.size(),
          "partition: snapshot cluster count mismatch");
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    clusters_[c]->engine->restore(snaps[c]);
  }
  windows_done_ = windows_done;
  // Snapshots are taken at barriers (post-audit), so re-anchoring the
  // baselines to the restored state reproduces the audit stream exactly.
  for (auto& cu : clusters_) rebaseline(*cu);
}

SolverStats PartitionedEngine::merged_stats() const {
  SolverStats s;
  for (const auto& cu : clusters_) s += cu->engine->stats();
  return s;
}

IntegrityReport PartitionedEngine::merged_integrity() const {
  IntegrityReport r;
  for (const auto& cu : clusters_) r.merge(cu->engine->integrity_report());
  return r;
}

}  // namespace semsim
