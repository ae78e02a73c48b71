#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/constants.h"
#include "base/error.h"
#include "guard/retry.h"
#include "physics/rates.h"

namespace semsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The one home of an engine's quasi-particle table rule: the range is
/// options.qp_table_half_range or, by default, twice the largest source
/// swing plus 16 charging terms, 8 times the 2*Delta threshold and 60 kT.
/// `calc` adopts `shared` when it is that table and builds it otherwise.
void tabulate_qp_rate(const Circuit& circuit, const EngineOptions& options,
                      RateCalculator& calc,
                      std::shared_ptr<const QuasiparticleRate> shared) {
  if (!calc.quasiparticle()) return;
  double half = options.qp_table_half_range;
  if (half <= 0.0) {
    double v_max = 0.0;
    for (const NodeId n : circuit.externals()) {
      v_max = std::max(v_max, circuit.source(n).max_abs());
    }
    double u_max = 0.0;
    for (std::size_t j = 0; j < circuit.junction_count(); ++j) {
      u_max = std::max(u_max, calc.charging_term(j));
    }
    half = 2.0 * kElementaryCharge * v_max + 16.0 * u_max +
           8.0 * 2.0 * calc.gap() + 60.0 * kBoltzmann * options.temperature;
  }
  calc.build_qp_table(half, std::move(shared));
}

}  // namespace

std::shared_ptr<const QuasiparticleRate> build_qp_table(
    const Circuit& circuit, const ElectrostaticModel& model,
    const EngineOptions& options) {
  if (!circuit.superconducting()) return nullptr;
  try {
    RateCalculator calc(circuit, model, options);
    tabulate_qp_rate(circuit, options, calc, nullptr);
    return calc.qp_unit();
  } catch (const Error&) {
    return nullptr;
  }
}

Engine::Engine(const Circuit& circuit, EngineOptions options,
               std::shared_ptr<const ElectrostaticModel> shared_model,
               std::shared_ptr<const QuasiparticleRate> shared_qp_table)
    : circuit_(circuit),
      options_(options),
      model_holder_(shared_model ? std::move(shared_model)
                                 : std::make_shared<ElectrostaticModel>(circuit)),
      model_(*model_holder_),
      calc_(circuit, model_, options_),
      adaptive_(circuit, model_, options_.adaptive.threshold),
      rng_(options_.seed),
      auditor_(options_.audit),
      fault_(options_.fault) {
  // The paper routes all superconducting rates through the non-adaptive
  // solver; cotunneling circuits keep adaptive single-electron handling but
  // recompute the cotunneling channels non-adaptively every event.
  adaptive_active_ = options_.adaptive.enabled && !calc_.superconducting();
  has_secondary_ =
      (calc_.superconducting() && calc_.gap() > 0.0) || calc_.cotunneling_enabled();
  fast_rates_ = options_.fast_rates;
  refresh_interval_ =
      options_.adaptive.refresh_interval > 0
          ? options_.adaptive.refresh_interval
          : std::max<std::uint64_t>(1000, 2 * circuit.junction_count());
  audit_interval_ =
      options_.audit.enabled ? options_.audit.resolved_interval() : 0;

  rates_.reset(channel_count());
  rate_buf_.resize(channel_count(), 0.0);
  // The adaptive solver reads this array through a raw pointer: size it once
  // here and never reallocate (reset()/restore() only rewrite the contents).
  delta_w_.assign(2 * circuit.junction_count(), 0.0);
  adaptive_.bind_delta_w(delta_w_.data());
  n_isl_ = model_.island_count();
  n_ext_ = model_.external_count();
  electrons_.assign(n_isl_, 0);
  // Unified potential array: islands, externals, then one ground slot that
  // stays 0 V forever.
  node_v_.assign(n_isl_ + n_ext_ + 1, 0.0);
  overridden_.assign(n_ext_, false);
  transferred_e_.assign(circuit.junction_count(), 0.0);
  node_epoch_.assign(n_isl_, 0);
  node_dv_.assign(n_isl_, 0.0);
  charge_buf_.assign(n_isl_, 0.0);

  // Resolve every channel endpoint to a node_v_ slot once, so the hot loop
  // never touches a NodeId -> index map again.
  const auto slot_of = [&](NodeId n) -> std::uint32_t {
    const int k = model_.island_index(n);
    if (k >= 0) return static_cast<std::uint32_t>(k);
    const int e = model_.external_index(n);
    if (e >= 0) return static_cast<std::uint32_t>(n_isl_ + static_cast<std::size_t>(e));
    return static_cast<std::uint32_t>(n_isl_ + n_ext_);  // ground
  };
  slot_a_.resize(circuit.junction_count());
  slot_b_.resize(circuit.junction_count());
  for (std::size_t j = 0; j < circuit.junction_count(); ++j) {
    slot_a_[j] = slot_of(circuit.junction(j).a);
    slot_b_[j] = slot_of(circuit.junction(j).b);
  }
  cot_slot_.reserve(3 * calc_.cotunneling_paths().size());
  for (const CotunnelingPath& p : calc_.cotunneling_paths()) {
    cot_slot_.push_back(slot_of(p.from));
    cot_slot_.push_back(slot_of(p.via));
    cot_slot_.push_back(slot_of(p.to));
  }

  // Event-loop scratch, sized so the steady state never reallocates.
  fen_val_.reserve(2 * circuit.junction_count());
  seed_buf_.reserve(2 * circuit.junction_count());
  flagged_buf_.reserve(circuit.junction_count());
  touched_nodes_.reserve(n_isl_);
  pending_changes_.reserve(n_ext_);

  // Seed sets for source steps: junctions adjacent to the stepped lead or to
  // any node it couples to capacitively (a gate capacitor couples an input
  // to an island without any junction touching the lead itself).
  source_seed_junctions_.resize(model_.external_count());
  for (std::size_t e = 0; e < model_.external_count(); ++e) {
    const NodeId lead = model_.external_node(e);
    std::vector<std::size_t>& seeds = source_seed_junctions_[e];
    auto add_node = [&](NodeId n) {
      for (std::size_t j : circuit_.junctions_of(n)) seeds.push_back(j);
    };
    add_node(lead);
    for (const CapacitiveElement& el : model_.capacitive_elements()) {
      if (el.a == lead) add_node(el.b);
      else if (el.b == lead) add_node(el.a);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  }

  tabulate_qp_rate(circuit_, options_, calc_, std::move(shared_qp_table));

  reset(options_.seed);
}

std::size_t Engine::channel_count() const noexcept {
  const std::size_t j = circuit_.junction_count();
  std::size_t n = 2 * j;
  if (calc_.superconducting() && calc_.gap() > 0.0) n += 2 * j;
  n += calc_.cotunneling_paths().size();
  return n;
}

void Engine::resync_schedules() {
  // Events until the next multiple of each interval: the countdowns fire on
  // exactly the events `stats_.events % interval == 0` fired on. Called
  // wherever stats_.events is overwritten wholesale.
  until_refresh_ = refresh_interval_ - stats_.events % refresh_interval_;
  until_audit_ = audit_interval_ != 0
                     ? audit_interval_ - stats_.events % audit_interval_
                     : 0;
}

void Engine::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  time_ = 0.0;
  stats_ = SolverStats{};
  resync_schedules();
  electrons_.assign(n_isl_, 0);
  transferred_e_.assign(circuit_.junction_count(), 0.0);
  overridden_.assign(n_ext_, false);
  for (std::size_t e = 0; e < n_ext_; ++e) {
    node_v_[n_isl_ + e] = circuit_.source(model_.external_node(e)).value(0.0);
  }
  stall_clock_ = false;
  full_update();
  next_breakpoint_ = refresh_next_breakpoint();
  auditor_.clear();
  rebaseline_audit();
  auditor_.arm(time_, stats_.events);
}

EngineSnapshot Engine::snapshot() {
  // Canonicalize: after full_update() every derived cache (node_v_, rates_,
  // adaptive accumulators) is an exact function of the serialized fields,
  // and the run continuing from here matches a restore() bit for bit.
  full_update();
  EngineSnapshot s;
  s.rng = rng_.state();
  s.time = time_;
  s.next_breakpoint = next_breakpoint_;
  s.electrons = electrons_;
  s.transferred_e = transferred_e_;
  s.v_ext.assign(node_v_.begin() + static_cast<std::ptrdiff_t>(n_isl_),
                 node_v_.begin() + static_cast<std::ptrdiff_t>(n_isl_ + n_ext_));
  s.overridden.assign(overridden_.begin(), overridden_.end());
  s.stats = stats_;
  s.integrity = auditor_.report();
  return s;
}

void Engine::restore(const EngineSnapshot& s) {
  require(s.electrons.size() == model_.island_count(),
          "Engine::restore: snapshot island count mismatch");
  require(s.transferred_e.size() == circuit_.junction_count(),
          "Engine::restore: snapshot junction count mismatch");
  require(s.v_ext.size() == model_.external_count() &&
              s.overridden.size() == model_.external_count(),
          "Engine::restore: snapshot external count mismatch");
  rng_.set_state(s.rng);
  time_ = s.time;
  electrons_ = s.electrons;
  transferred_e_ = s.transferred_e;
  std::copy(s.v_ext.begin(), s.v_ext.end(),
            node_v_.begin() + static_cast<std::ptrdiff_t>(n_isl_));
  for (std::size_t e = 0; e < overridden_.size(); ++e) {
    overridden_[e] = s.overridden[e] != 0;
  }
  pending_changes_.clear();
  full_update();  // rebuild all caches from the restored state
  stats_ = s.stats;  // after full_update: its work must not double-count
  resync_schedules();
  next_breakpoint_ = s.next_breakpoint;
  rebaseline_audit();
  auditor_.restore(s.integrity);
  auditor_.arm(time_, stats_.events);
}

void Engine::island_charges_into(std::vector<double>& q) const {
  q.resize(n_isl_);
  for (std::size_t k = 0; k < n_isl_; ++k) {
    const NodeId node = model_.island_node(k);
    q[k] = kElementaryCharge *
           (circuit_.background_charge_e(node) - static_cast<double>(electrons_[k]));
  }
}

long Engine::electron_count(NodeId n) const {
  const int k = model_.island_index(n);
  require(k >= 0, "electron_count: node is not an island");
  return electrons_[static_cast<std::size_t>(k)];
}

double Engine::node_voltage(NodeId n) const {
  const int k = model_.island_index(n);
  if (k >= 0) return node_v_[static_cast<std::size_t>(k)];
  const int e = model_.external_index(n);
  if (e >= 0) return node_v_[n_isl_ + static_cast<std::size_t>(e)];
  return 0.0;
}

void Engine::full_update() {
  island_charges_into(charge_buf_);
  model_.island_potentials_into(charge_buf_.data(), node_v_.data() + n_isl_,
                                node_v_.data());
  stats_.potential_node_updates += n_isl_;
  recompute_all_rates();
  adaptive_.reset_accumulators();
  ++stats_.full_refreshes;
}

void Engine::recompute_all_rates() {
  // Two fused SoA passes over the channel state: one refreshes the whole
  // persistent ΔW store from the potential cache (voltages via precomputed
  // endpoint slots — no Junction structs, no NodeId resolution), then one
  // batched kernel call turns ΔW into rates. The adaptive solver's dW'
  // staleness store IS delta_w_ (bound at construction), so there is no
  // per-junction store_dw bookkeeping here; the b0 accumulators are
  // discharged by full_update()'s reset_accumulators() as before.
  const std::size_t j_count = circuit_.junction_count();
  const double* v = node_v_.data();
  calc_.delta_w_batch(v, slot_a_.data(), slot_b_.data(), j_count,
                      delta_w_.data());
  if (calc_.quasiparticle()) {
    calc_.qp_rates_from_dw(delta_w_.data(), j_count, rate_buf_.data());
  } else if (fast_rates_) {
    tunnel_rates_batch_fast(delta_w_.data(), calc_.channel_conductance(),
                            calc_.kt(), rate_buf_.data(), 2 * j_count);
  } else {
    tunnel_rates_batch(delta_w_.data(), calc_.channel_conductance(),
                       calc_.kt(), rate_buf_.data(), 2 * j_count);
  }
  stats_.rate_evaluations += 2 * j_count;

  const std::uint32_t* sa = slot_a_.data();
  const std::uint32_t* sb = slot_b_.data();
  if (calc_.superconducting() && calc_.gap() > 0.0) {
    for (std::size_t j = 0; j < j_count; ++j) {
      const ChannelRates r = calc_.cooper_pair_rates(j, v[sa[j]], v[sb[j]]);
      rate_buf_[2 * j_count + 2 * j] = r.rate_fw;
      rate_buf_[2 * j_count + 2 * j + 1] = r.rate_bw;
    }
    stats_.cp_rate_evaluations += 2 * j_count;
  }
  const std::size_t n_paths = calc_.cotunneling_paths().size();
  const std::size_t cot_base = channel_count() - n_paths;
  calc_.cotunneling_rates_batch(v, cot_slot_.data(), fast_rates_,
                                rate_buf_.data() + cot_base);
  stats_.cot_rate_evaluations += n_paths;

  rates_.set_all(rate_buf_);
  audit_peak_total_ = 0.0;  // set_all rebuilt the tree: drift squashed
}

void Engine::apply_charge_move_everywhere(NodeId from, NodeId to, double q) {
  // dv_k = q (kappa[k][to] - kappa[k][from]); exact, O(islands). kappa is
  // bitwise symmetric (the Cholesky inverse mirrors its lower triangle), so
  // the column of the departed/arrived island is read as the matching ROW:
  // identical bits, contiguous memory instead of a cache miss per entry on
  // large circuits. Two separate passes, `from` first — fusing them would
  // reorder the additions and break bitwise reproducibility.
  const int kf = model_.island_index(from);
  const int kt = model_.island_index(to);
  double* v = node_v_.data();
  std::size_t touched = 0;
  if (kf >= 0) {
    const double* row = model_.kappa_row(static_cast<std::size_t>(kf));
    // Banded: kappa rows are flushed to exact zero outside
    // [row_begin, row_end) at construction, so skipping the tails drops
    // only exact-zero products — bitwise identical to the full loop.
    const std::size_t b = model_.row_begin(static_cast<std::size_t>(kf));
    const std::size_t e = model_.row_end(static_cast<std::size_t>(kf));
    const double dq = -q;
    for (std::size_t k = b; k < e; ++k) v[k] += row[k] * dq;
    touched += e - b;
  }
  if (kt >= 0) {
    const double* row = model_.kappa_row(static_cast<std::size_t>(kt));
    const std::size_t b = model_.row_begin(static_cast<std::size_t>(kt));
    const std::size_t e = model_.row_end(static_cast<std::size_t>(kt));
    for (std::size_t k = b; k < e; ++k) v[k] += row[k] * q;
    touched += e - b;
  }
  // Lead-to-lead moves leave every island potential untouched.
  stats_.potential_node_updates += touched;
}

void Engine::commit_flagged_rates() {
  // Adaptive path only — superconducting circuits never flag (they run
  // non-adaptively), so the flagged channels always go through the normal
  // tunnel kernel. One fused kernel call recomputes each flagged junction's
  // ΔW pair straight into the persistent store and its two rates into
  // fen_val_ — no gather/scatter scratch round-trip — and the pair-fused
  // Fenwick commit walks each junction's shared tree path once instead of
  // twice. Both halves are bitwise equivalent to the staged
  // delta_w_flagged + tunnel_rates_batch + set_many sequence they replaced
  // (same expressions and TU; same per-node accumulation order).
  const std::size_t nf = flagged_buf_.size();
  if (nf == 0) return;
  fen_val_.resize(2 * nf);
  calc_.flagged_rates_fused(node_v_.data(), slot_a_.data(), slot_b_.data(),
                            flagged_buf_.data(), nf, fast_rates_,
                            delta_w_.data(), fen_val_.data());
  for (std::size_t i = 0; i < nf; ++i) adaptive_.mark_fresh(flagged_buf_[i]);
  stats_.rate_evaluations += 2 * nf;
  rates_.set_junction_pairs(flagged_buf_.data(), fen_val_.data(), nf);
}

void Engine::recompute_secondary() {
  // Cotunneling channels: the non-adaptive path of the paper. Callers keep
  // all island potentials exact when these channels exist. The batched
  // kernel streams the per-path SoA constants linearly; the contiguous
  // set_range commit is bitwise equivalent to the per-channel set() loop it
  // replaced. --fast-rates routes the thermal factor through the shared
  // Cody-Waite expm1 (byte-identical at T = 0).
  const double* v = node_v_.data();
  const std::size_t n_paths = calc_.cotunneling_paths().size();
  const std::size_t cot_base = channel_count() - n_paths;
  calc_.cotunneling_rates_batch(v, cot_slot_.data(), fast_rates_,
                                rate_buf_.data() + cot_base);
  rates_.set_range(cot_base, rate_buf_.data() + cot_base, n_paths);
  stats_.cot_rate_evaluations += n_paths;
}

void Engine::after_charge_move(NodeId from, NodeId to, double q) {
  if (!adaptive_active_ || has_secondary_) {
    // Non-adaptive (or secondary channels present): exact potentials.
    apply_charge_move_everywhere(from, to, q);
    if (!adaptive_active_) {
      recompute_all_rates();
      ++stats_.full_refreshes;
      return;
    }
  }

  ++epoch_;
  touched_nodes_.clear();
  const bool exact_potentials = has_secondary_;  // already applied above
  // Hoist the two kappa rows of the event's islands once per event: by
  // bitwise symmetry row[k] carries exactly the bits of the column entry
  // kappa[k][island], so each memoized dv is bit-identical to the
  // column-strided form while the per-junction test reads contiguous
  // cache lines (the tested islands cluster around the event site).
  const int ev_kf = model_.island_index(from);
  const int ev_kt = model_.island_index(to);
  const double* row_from =
      ev_kf >= 0 ? model_.kappa_row(static_cast<std::size_t>(ev_kf)) : nullptr;
  const double* row_to =
      ev_kt >= 0 ? model_.kappa_row(static_cast<std::size_t>(ev_kt)) : nullptr;
  // On a large circuit the two rows live in L3 (the kappa matrix is MBs);
  // the dv tests below read them at columns clustered around the event
  // islands. Request those lines now so the miss latency overlaps the BFS
  // seed setup instead of stalling the first dv test. Pure prefetch: no
  // value or trajectory effect.
  for (const int k0 : {ev_kf, ev_kt}) {
    if (k0 < 0) continue;
    const std::size_t k = static_cast<std::size_t>(k0);
    if (row_from) {
      __builtin_prefetch(row_from + k, 0, 1);
      if (k + 8 < n_isl_) __builtin_prefetch(row_from + k + 8, 0, 1);
    }
    if (row_to) {
      __builtin_prefetch(row_to + k, 0, 1);
      if (k + 8 < n_isl_) __builtin_prefetch(row_to + k + 8, 0, 1);
    }
  }
  const auto dv_isl = [&](std::size_t k) -> double {
    if (node_epoch_[k] != epoch_) {
      node_epoch_[k] = epoch_;
      node_dv_[k] = ElectrostaticModel::potential_delta_row(row_to, k, q) -
                    ElectrostaticModel::potential_delta_row(row_from, k, q);
      touched_nodes_.push_back(k);
    }
    return node_dv_[k];
  };
  // Seeds come straight from the solver's per-island CSR rows — the same
  // coupled-junction lists, in the same order, the seed_buf_ construction
  // used to copy. A fixed-potential lead does not move, so only island
  // endpoints seed (seeding from a supply rail would test every device on
  // the rail).
  stats_.junctions_tested +=
      adaptive_.collect_event(ev_kf, ev_kt, dv_isl, flagged_buf_);
  stats_.junctions_flagged += flagged_buf_.size();

  // Selective potential update (paper Sec. III-B): only the nodes the test
  // actually visited move; everything else drifts until the next refresh.
  if (!exact_potentials) {
    for (const std::size_t k : touched_nodes_) node_v_[k] += node_dv_[k];
    stats_.potential_node_updates += touched_nodes_.size();
  }
  commit_flagged_rates();

  if (calc_.cotunneling_enabled()) recompute_secondary();
}

double Engine::refresh_next_breakpoint() const {
  double bp = kInf;
  for (std::size_t e = 0; e < model_.external_count(); ++e) {
    if (overridden_[e]) continue;
    bp = std::min(bp,
                  circuit_.source(model_.external_node(e)).next_breakpoint(time_));
  }
  // Periodic waveforms can round a breakpoint onto time_ itself; without
  // strict progress the solver would re-process the same edge forever. One
  // ulp forward is enough for the next query to land past the edge.
  if (bp <= time_) bp = std::nextafter(time_, kInf);
  return bp;
}

void Engine::handle_source_deltas() {
  if (pending_changes_.empty()) return;
  ++stats_.source_updates;
  if (!adaptive_active_ || has_secondary_) {
    for (const SourceChange& c : pending_changes_) {
      for (std::size_t k = 0; k < n_isl_; ++k) {
        node_v_[k] += model_.source_gain()(k, c.ext) * c.dv;
      }
    }
    stats_.potential_node_updates += n_isl_ * pending_changes_.size();
    if (!adaptive_active_) {
      recompute_all_rates();
      ++stats_.full_refreshes;
      pending_changes_.clear();
      return;
    }
  }

  seed_buf_.clear();
  for (const SourceChange& c : pending_changes_) {
    const std::vector<std::size_t>& s = source_seed_junctions_[c.ext];
    seed_buf_.insert(seed_buf_.end(), s.begin(), s.end());
  }
  ++epoch_;
  touched_nodes_.clear();
  const bool exact_potentials = has_secondary_;
  const auto dv_isl = [&](std::size_t k) -> double {
    if (node_epoch_[k] != epoch_) {
      node_epoch_[k] = epoch_;
      double dv = 0.0;
      for (const SourceChange& c : pending_changes_) {
        dv += model_.source_gain()(k, c.ext) * c.dv;
      }
      node_dv_[k] = dv;
      touched_nodes_.push_back(k);
    }
    return node_dv_[k];
  };
  // A stepped lead's own potential change is the step itself — without
  // this, a symmetric bias step (island potentials unchanged) would never
  // flag the junctions whose dW it shifted.
  const auto dv_fix = [&](NodeId n) -> double {
    for (const SourceChange& c : pending_changes_) {
      if (c.node == n) return c.dv;
    }
    return 0.0;
  };
  stats_.junctions_tested +=
      adaptive_.collect(seed_buf_, dv_isl, dv_fix, flagged_buf_);
  stats_.junctions_flagged += flagged_buf_.size();
  if (!exact_potentials) {
    for (const std::size_t k : touched_nodes_) node_v_[k] += node_dv_[k];
    stats_.potential_node_updates += touched_nodes_.size();
  }
  commit_flagged_rates();
  if (calc_.cotunneling_enabled()) recompute_secondary();
  pending_changes_.clear();
}

void Engine::set_dc_source(NodeId n, double volts) {
  set_dc_sources({{n, volts}});
}

void Engine::set_dc_sources(
    const std::vector<std::pair<NodeId, double>>& sources) {
  bool changed = false;
  for (const auto& [node, volts] : sources) {
    const int e = model_.external_index(node);
    require(e >= 0, "set_dc_sources: node is not an external lead");
    const std::size_t ei = static_cast<std::size_t>(e);
    overridden_[ei] = true;
    if (volts != node_v_[n_isl_ + ei]) {
      node_v_[n_isl_ + ei] = volts;
      changed = true;
    }
  }
  // One exact recompute for the whole batch. It also rebuilds the prefix
  // tree, so cancellation drift from the old rates cannot swamp rates that
  // shrank by orders of magnitude when entering blockade.
  if (changed) full_update();
  next_breakpoint_ = refresh_next_breakpoint();
  // Each bias point gets its own wall-clock budget and progress window.
  auditor_.arm(time_, stats_.events);
}

void Engine::set_electron_counts(
    const std::vector<std::pair<NodeId, long>>& counts) {
  for (const auto& [node, n] : counts) {
    const int k = model_.island_index(node);
    require(k >= 0, "set_electron_counts: node is not an island");
    electrons_[static_cast<std::size_t>(k)] = n;
  }
  full_update();
  rebaseline_audit();
}

void Engine::rebase_time() {
  require(!std::isfinite(refresh_next_breakpoint()),
          "rebase_time: sources still have future breakpoints");
  time_ = 0.0;
  next_breakpoint_ = refresh_next_breakpoint();
  // The progress tracker anchors to the simulation clock; re-arm it so the
  // rebased (smaller) time is not mistaken for a stall.
  auditor_.arm(time_, stats_.events);
}

void Engine::apply_event(std::size_t channel, Event& ev) {
  const std::size_t j_count = circuit_.junction_count();
  const double e = kElementaryCharge;
  if (channel < 2 * j_count) {
    const std::size_t j = channel / 2;
    const bool fwd = (channel % 2) == 0;
    const Junction& jn = circuit_.junction(j);
    ev.kind = Event::Kind::kSingleElectron;
    ev.index = j;
    ev.from = fwd ? jn.a : jn.b;
    ev.to = fwd ? jn.b : jn.a;
    ev.charge = -e;
    transferred_e_[j] += fwd ? -1.0 : 1.0;
  } else if (calc_.superconducting() && channel < 4 * j_count) {
    const std::size_t c = channel - 2 * j_count;
    const std::size_t j = c / 2;
    const bool fwd = (c % 2) == 0;
    const Junction& jn = circuit_.junction(j);
    ev.kind = Event::Kind::kCooperPair;
    ev.index = j;
    ev.from = fwd ? jn.a : jn.b;
    ev.to = fwd ? jn.b : jn.a;
    ev.charge = -2.0 * e;
    transferred_e_[j] += fwd ? -2.0 : 2.0;
  } else {
    const std::size_t cot_base = channel_count() - calc_.cotunneling_paths().size();
    const std::size_t p = channel - cot_base;
    const CotunnelingPath& path = calc_.cotunneling_paths()[p];
    ev.kind = Event::Kind::kCotunneling;
    ev.index = p;
    ev.from = path.from;
    ev.to = path.to;
    ev.charge = -e;
    const Junction& j1 = circuit_.junction(path.j1);
    const Junction& j2 = circuit_.junction(path.j2);
    transferred_e_[path.j1] += (j1.a == path.from) ? -1.0 : 1.0;
    transferred_e_[path.j2] += (j2.a == path.via) ? -1.0 : 1.0;
  }

  // Electron bookkeeping: an electron (-e) arriving at `to` increments its
  // excess-electron count.
  // -charge/e is exactly 1.0 or 2.0 (charge is -e or -2e verbatim), so a
  // plain truncating cast replaces the lround libm call in the hot loop.
  const double n_moved = -ev.charge / e;  // 1 for electron, 2 for pair
  const long dn = static_cast<long>(n_moved);
  const int k_from = model_.island_index(ev.from);
  const int k_to = model_.island_index(ev.to);
  if (k_from >= 0) electrons_[static_cast<std::size_t>(k_from)] -= dn;
  if (k_to >= 0) electrons_[static_cast<std::size_t>(k_to)] += dn;
}

Engine::StepOutcome Engine::step_internal(double t_limit, Event* out) {
  double dt = 0.0;
  double total = 0.0;
  for (;;) {
    total = rates_.total();
    if (total > audit_peak_total_) audit_peak_total_ = total;
    dt = exponential_waiting_time(rng_, total);
    const double t_event = time_ + dt;
    if (std::isfinite(next_breakpoint_) && next_breakpoint_ <= t_event &&
        next_breakpoint_ <= t_limit) {
      // Rates change at the breakpoint; the exponential draw is memoryless,
      // so jump there, apply the new source values, and redraw.
      time_ = next_breakpoint_;
      pending_changes_.clear();
      for (std::size_t e = 0; e < n_ext_; ++e) {
        if (overridden_[e]) continue;
        const NodeId node = model_.external_node(e);
        const double v_new = circuit_.source(node).value(time_);
        const double dv = v_new - node_v_[n_isl_ + e];
        if (dv != 0.0) {
          node_v_[n_isl_ + e] = v_new;
          pending_changes_.push_back(SourceChange{node, e, dv});
        }
      }
      handle_source_deltas();
      next_breakpoint_ = refresh_next_breakpoint();
      continue;
    }
    if (t_event > t_limit) {
      time_ = t_limit;
      return StepOutcome::kReachedLimit;
    }
    if (std::isinf(dt)) return StepOutcome::kStuck;
    break;
  }

  if (stall_clock_) dt = 0.0;  // injected kStallClock fault
  time_ += dt;
  std::size_t channel = rates_.sample(rng_.uniform01() * total);
  if (rates_.value(channel) <= 0.0) {
    // Floating-point edge: the sampled prefix landed on a zero-rate channel.
    // Fall back to the first non-zero channel (measure-zero event).
    for (std::size_t c = 0; c < channel_count(); ++c) {
      if (rates_.value(c) > 0.0) {
        channel = c;
        break;
      }
    }
  }

  Event ev;
  ev.dt = dt;
  apply_event(channel, ev);
  ev.time = time_;
  ++stats_.events;
  // Fault-injection poll: with no plan armed this is one pointer test.
  if (fault_.armed()) {
    if (const FaultSpec* f = fault_.next(stats_.events)) apply_fault(*f);
  }
  if ((stats_.events & 0xFFFF) == 0) {
    rates_.rebuild();  // cap FP drift
    audit_peak_total_ = 0.0;
  }

  after_charge_move(ev.from, ev.to, ev.charge);

  // Countdown equivalents of `events % interval == 0` — same firing events,
  // no 64-bit division in the hot loop (see resync_schedules()).
  if (adaptive_active_ && --until_refresh_ == 0) {
    until_refresh_ = refresh_interval_;
    full_update();
  }

  // Periodic integrity audit: read-only and RNG-free, so trajectories are
  // bitwise unaffected; amortized cost is negligible at the default cadence.
  if (until_audit_ != 0 && --until_audit_ == 0) {
    until_audit_ = audit_interval_;
    run_audit();
  }

  if (out) *out = ev;
  if (callback_) callback_(*this, ev);
  return StepOutcome::kExecuted;
}

void Engine::rebaseline_audit() {
  audit_base_electrons_ = electrons_;
  audit_base_transferred_ = transferred_e_;
}

void Engine::run_audit() {
  AuditView view;
  view.rates = &rates_;
  view.island_v = node_v_.data();
  view.n_islands = n_isl_;
  view.electrons = electrons_.data();
  view.base_electrons = audit_base_electrons_.data();
  view.transferred_e = transferred_e_.data();
  view.base_transferred = audit_base_transferred_.data();
  view.n_junctions = circuit_.junction_count();
  view.slot_a = slot_a_.data();
  view.slot_b = slot_b_.data();
  view.delta_w = delta_w_.data();
  view.n_delta_w = delta_w_.size();
  view.node_v = node_v_.data();
  view.charging_u = calc_.charging_terms();
  // Non-adaptive mode re-derives every delta_w_ entry from the exact
  // potential cache after each event; adaptive mode lets unflagged entries
  // go stale by design, so only finiteness can be audited there.
  view.delta_w_synced = !adaptive_active_;
  view.sim_time = time_;
  view.events = stats_.events;
  view.rate_scale = audit_peak_total_;
  auditor_.audit(view);
}

void Engine::apply_fault(const FaultSpec& f) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  switch (f.kind) {
    case FaultKind::kNanRate:
      // Goes through the guarded Fenwick setter on purpose: the injection
      // IS the corruption attempt, and the setter must reject it.
      rates_.set(f.index % rates_.size(), kNan);
      break;
    case FaultKind::kInfRate:
      rates_.set(f.index % rates_.size(), kInf);
      break;
    case FaultKind::kNegativeRate:
      rates_.set(f.index % rates_.size(), f.value < 0.0 ? f.value : -1.0);
      break;
    case FaultKind::kNanPotential:
      if (n_isl_ > 0) node_v_[f.index % n_isl_] = kNan;
      break;
    case FaultKind::kCorruptDeltaW:
      // Poisons the stored ΔW pair of the junction owning channel `index`
      // (both directions: a single NaN side could still re-flag through the
      // healthy side and self-heal before the audit sees it). Detection is
      // the auditor's delta_w finiteness/recompute checks — the corrupted
      // store otherwise silently disables the junction's staleness test.
      if (!delta_w_.empty()) {
        const std::size_t j = (f.index / 2) % (delta_w_.size() / 2);
        const double payload = f.value != 0.0 ? f.value : kNan;
        delta_w_[2 * j] = payload;
        delta_w_[2 * j + 1] = payload;
      }
      break;
    case FaultKind::kCorruptCharge:
      // Adds an electron with no matching junction transfer, violating the
      // charge-conservation invariant the auditor checks.
      if (n_isl_ > 0) electrons_[f.index % n_isl_] += 1;
      break;
    case FaultKind::kStallClock:
      stall_clock_ = true;
      break;
    case FaultKind::kSleep:
      retry_sleep(static_cast<double>(f.millis) / 1000.0);
      break;
    case FaultKind::kNone:
      break;
  }
}

bool Engine::step(Event* out) {
  return step_internal(kInf, out) == StepOutcome::kExecuted;
}

std::uint64_t Engine::run_events(std::uint64_t n) {
  std::uint64_t done = 0;
  while (done < n && step(nullptr)) ++done;
  return done;
}

void Engine::run_until(double t_end) {
  while (time_ < t_end) {
    if (step_internal(t_end, nullptr) != StepOutcome::kExecuted) return;
  }
}

}  // namespace semsim
