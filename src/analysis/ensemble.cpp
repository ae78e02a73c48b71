#include "analysis/ensemble.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "analysis/api.h"
#include "analysis/ensemble_driver.h"
#include "analysis/units.h"
#include "base/random.h"
#include "obs/checkpoint.h"
#include "obs/ensemble_stats.h"

namespace semsim {

namespace {

/// Stream-domain tag of the perturbation draws: replica r's device comes
/// from Xoshiro256(derive_stream_seed(effective_seed ^ kPerturbationTag, r)),
/// disjoint from the trajectory streams (which never XOR the tag) and a pure
/// function of (effective_seed, r). Frozen — changing it changes every
/// perturbed ensemble.
constexpr std::uint64_t kPerturbationTag = 0x9D5EB0A7C1E4F083ULL;

constexpr double kTwoPi = 6.28318530717958647692;

/// Relative element-value factors never drop below this, so a deep negative
/// Gaussian tail cannot produce a non-physical (<= 0) resistance or
/// capacitance.
constexpr double kRelativeFactorFloor = 0.05;

double draw_z(Xoshiro256& rng, PerturbationSpec::Dist dist) {
  if (dist == PerturbationSpec::Dist::kUniform) {
    return 2.0 * rng.uniform01() - 1.0;
  }
  // Box-Muller; u1 in (0,1] keeps the log finite. Hand-rolled instead of
  // std::normal_distribution, whose draw sequence is not specified and
  // differs across standard libraries — the ensemble must be bitwise
  // portable like every other stream in the codebase.
  const double u1 = rng.uniform01_open_low();
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double relative_factor(Xoshiro256& rng, const PerturbationSpec& p) {
  if (!p.active()) return 1.0;
  return std::max(1.0 + p.spread * draw_z(rng, p.dist), kRelativeFactorFloor);
}

void validate_spread(const PerturbationSpec& p, const char* name) {
  require(std::isfinite(p.spread) && p.spread >= 0.0,
          std::string("ensemble: ") + name +
              " spread must be finite and >= 0");
}

}  // namespace

void EnsembleSpec::validate() const {
  require(replicas >= 1, "ensemble: replicas must be >= 1");
  validate_spread(bg_charge, "bg_charge");
  validate_spread(resistance, "resistance");
  validate_spread(capacitance, "capacitance");
  validate_spread(temperature, "temperature");
  require(std::isfinite(yield_min) && yield_min >= 0.0,
          "ensemble: yield_min must be finite and >= 0");
  require(yield_max > 0.0 && !std::isnan(yield_max),
          "ensemble: yield_max must be > 0");
  require(yield_min <= yield_max,
          "ensemble: yield window is inverted (yield_min > yield_max)");
}

ReplicaPerturbation draw_replica_perturbation(const SimulationInput& input,
                                              const EnsembleSpec& spec,
                                              std::uint64_t effective_seed,
                                              std::uint32_t replica) {
  ReplicaPerturbation p;
  Xoshiro256 rng(
      derive_stream_seed(effective_seed ^ kPerturbationTag, replica));
  // Fixed draw order — temperature, per-junction (R, C), per-capacitor C,
  // per-island offset — with INACTIVE perturbations drawing nothing, so
  // enabling one knob never reshuffles another knob's draws.
  if (spec.temperature.active()) {
    p.temperature_factor = std::max(
        1.0 + spec.temperature.spread * draw_z(rng, spec.temperature.dist),
        0.0);
  }
  const std::size_t nj = input.circuit.junction_count();
  p.r_factor.reserve(nj);
  p.c_factor.reserve(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    p.r_factor.push_back(relative_factor(rng, spec.resistance));
    p.c_factor.push_back(relative_factor(rng, spec.capacitance));
  }
  const std::size_t nc = input.circuit.capacitor_count();
  p.cap_factor.reserve(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    p.cap_factor.push_back(relative_factor(rng, spec.capacitance));
  }
  const std::vector<NodeId> islands = input.circuit.islands();
  p.bg_offset_e.reserve(islands.size());
  for (std::size_t i = 0; i < islands.size(); ++i) {
    p.bg_offset_e.push_back(
        spec.bg_charge.active()
            ? spec.bg_charge.spread * draw_z(rng, spec.bg_charge.dist)
            : 0.0);
  }
  return p;
}

SimulationInput materialize_replica(const SimulationInput& input,
                                    const EnsembleSpec& spec,
                                    std::uint64_t effective_seed,
                                    std::uint32_t replica) {
  SimulationInput out = input;
  const ReplicaPerturbation p =
      draw_replica_perturbation(input, spec, effective_seed, replica);
  out.temperature = input.temperature * p.temperature_factor;
  if (spec.resistance.active() || spec.capacitance.active()) {
    for (std::size_t j = 0; j < out.circuit.junction_count(); ++j) {
      const Junction& jn = input.circuit.junction(j);
      out.circuit.set_junction_parameters(j, jn.resistance * p.r_factor[j],
                                          jn.capacitance * p.c_factor[j]);
    }
  }
  if (spec.capacitance.active()) {
    for (std::size_t c = 0; c < out.circuit.capacitor_count(); ++c) {
      out.circuit.set_capacitor_value(
          c, input.circuit.capacitor(c).capacitance * p.cap_factor[c]);
    }
  }
  if (spec.bg_charge.active()) {
    const std::vector<NodeId> islands = out.circuit.islands();
    for (std::size_t i = 0; i < islands.size(); ++i) {
      out.circuit.set_background_charge(
          islands[i],
          input.circuit.background_charge_e(islands[i]) + p.bg_offset_e[i]);
    }
  }
  return out;
}

std::string replica_status_label(const ReplicaRow& row) {
  if (!row.ok) return std::string("failed:") + error_code_name(row.code);
  return row.attempts > 1 ? "retried" : "ok";
}

// ---- run_ensemble ---------------------------------------------------------

namespace {

/// One replica's complete contribution to the merged DriverResult; resuming
/// from its checkpoint payload reproduces a bitwise-identical canonical
/// document.
struct ReplicaOutcome : UnitWork {
  ReplicaRow row;
  /// Degraded work units INSIDE an ok replica (failed sweep points of that
  /// replica's table), already "replica <r>: "-prefixed.
  std::vector<UnitFailure> inner_failures;
};

void encode_outcome(BinaryWriter& w, const ReplicaOutcome& o) {
  w.u32(o.row.replica);
  w.f64(o.row.current.mean);
  w.f64(o.row.current.stderr_mean);
  w.f64(o.row.current.sim_time);
  w.u64(o.row.current.events);
  w.f64(o.row.observable);
  w.f64(o.row.sim_time);
  w.u64(o.row.events);
  w.u64(o.row.sweep.size());
  for (const IvPoint& p : o.row.sweep) encode_iv_point(w, p);
  w.u64(o.inner_failures.size());
  for (const UnitFailure& f : o.inner_failures) {
    w.u64(f.unit);
    w.u32(static_cast<std::uint32_t>(f.code));
    w.u32(f.attempts);
    w.str(f.message);
  }
}

ReplicaOutcome decode_outcome(BinaryReader& r) {
  ReplicaOutcome o;
  o.row.replica = r.u32();
  o.row.current.mean = r.f64();
  o.row.current.stderr_mean = r.f64();
  o.row.current.sim_time = r.f64();
  o.row.current.events = r.u64();
  o.row.observable = r.f64();
  o.row.sim_time = r.f64();
  o.row.events = r.u64();
  const std::uint64_t np = r.u64();
  o.row.sweep.reserve(np);
  for (std::uint64_t p = 0; p < np; ++p) {
    o.row.sweep.push_back(decode_iv_point(r));
  }
  const std::uint64_t nf = r.u64();
  for (std::uint64_t f = 0; f < nf; ++f) {
    UnitFailure uf;
    uf.unit = r.u64();
    uf.code = static_cast<ErrorCode>(r.u32());
    uf.attempts = r.u32();
    uf.message = r.str();
    o.inner_failures.push_back(std::move(uf));
  }
  return o;
}

EnsembleBandStats to_band(const EnsembleAccumulator& a) {
  EnsembleBandStats b;
  b.mean = a.mean();
  b.spread = a.spread();
  b.min = a.min();
  b.max = a.max();
  b.n_ok = a.n_ok();
  b.yield = a.yield();
  return b;
}

}  // namespace

DriverResult run_ensemble(const SimulationInput& input,
                          const DriverOptions& options) {
  const EnsembleSpec& spec = options.ensemble;
  require(spec.enabled, "run_ensemble: ensemble spec is disabled");
  spec.validate();
  const std::uint64_t eff = ensemble_effective_seed(spec, options.seed);
  const std::uint32_t n = spec.replicas;

  input.circuit.build_caches();
  Units<ReplicaOutcome> units;
  units.count = n;
  units.name = "replica";
  units.isolated = true;
  units.encode = encode_outcome;
  units.decode = [](BinaryReader& r, std::size_t) { return decode_outcome(r); };

  // Plain fixed-budget measurements run the replica as one solo engine on
  // its replica circuit; sweeps, transients, convergence stopping and
  // per-replica repeats recurse into the single-device driver.
  const bool plain = !input.sweep.has_value() && input.max_time <= 0.0 &&
                     std::max<std::uint32_t>(input.repeats, 1) == 1 &&
                     !options.stop.convergence_enabled() &&
                     !input.record_junctions.empty();
  const std::vector<CurrentProbe> probes = recorded_probes(input);
  const CurrentMeasureConfig cfg = measure_config_from_input(input);
  // One capacitance-matrix inversion for the whole ensemble when no
  // perturbation touches a capacitance (R, background charge and
  // temperature never enter the electrostatic model), and one
  // quasi-particle table when the temperature is not perturbed either (the
  // unit-resistance table ignores R and background charge). A replica
  // whose table would differ builds its own (see the Engine constructor).
  std::shared_ptr<const ElectrostaticModel> shared_model;
  std::shared_ptr<const QuasiparticleRate> shared_qp_table;
  if (plain && !spec.capacitance.active()) {
    shared_model = std::make_shared<const ElectrostaticModel>(input.circuit);
    if (!spec.temperature.active()) {
      shared_qp_table = build_qp_table(input.circuit, *shared_model,
                                       engine_options_for(input, options));
    }
  }
  if (plain) {
    units.body = [&](const UnitAttempt& a, ReplicaOutcome& o) {
      const std::uint32_t r = static_cast<std::uint32_t>(a.unit);
      o.row.replica = r;
      SimulationInput rep = materialize_replica(input, spec, eff, r);
      const EngineOptions eo = engine_options_for(rep, options);
      Engine& e =
          a.engine(std::move(rep.circuit), eo, shared_model, shared_qp_table);
      o.row.current = measure_mean_current(e, probes, cfg);
      o.row.observable = o.row.current.mean;
      o.row.sim_time = e.time();
      o.row.events = e.event_count();
    };
  } else {
    units.body = [&](const UnitAttempt& a, ReplicaOutcome& o) {
      const std::uint32_t r = static_cast<std::uint32_t>(a.unit);
      o.row.replica = r;
      const SimulationInput rep = materialize_replica(input, spec, eff, r);
      // The replica recurses into the single-device driver: its own sweep
      // chunking, convergence stopping and inner fault isolation, on a
      // serial executor (the ensemble already shards across replicas),
      // with all streams derived from the replica seed.
      DriverOptions sub = options;
      sub.ensemble = EnsembleSpec{};
      sub.seed = a.seed();
      sub.threads = 1;
      sub.executor = nullptr;
      sub.checkpoint_path.clear();
      sub.resume_path.clear();
      sub.salvage_checkpoint = false;
      sub.progress = nullptr;
      DriverResult dr = run_simulation(rep, sub);
      o.stats += dr.counters.stats;
      o.integrity.merge(dr.integrity);
      for (const UnitFailure& f : dr.failures) {
        o.inner_failures.push_back(
            {f.unit, f.code, f.attempts,
             "replica " + std::to_string(r) + ": " + f.message});
      }
      o.row.sweep = std::move(dr.sweep);
      if (dr.current) o.row.current = *dr.current;
      o.row.sim_time = dr.simulated_time;
      o.row.events = dr.events;
      if (input.sweep.has_value()) {
        double peak = 0.0;
        for (const IvPoint& p : o.row.sweep) {
          if (p.status == PointStatus::kFailed) continue;
          peak = std::max(peak, std::abs(p.current));
        }
        o.row.observable = peak;
      } else {
        o.row.observable = o.row.current.mean;
      }
    };
  }

  UnitContext ctx = unit_context(input, options, eff);
  ctx.tag_checkpoint("ensemble", n);
  DriverResult result;
  std::vector<ReplicaOutcome> outs =
      run_units(units, ctx, &result.counters, &result.integrity);

  // Merge in replica-index order on this thread: every statistic below is
  // bitwise independent of the worker count.
  EnsembleResult ens;
  ens.replicas = n;
  ens.seed = eff;
  EnsembleAccumulator band(spec.yield_min, spec.yield_max);
  for (std::size_t r = 0; r < outs.size(); ++r) {
    ReplicaOutcome& o = outs[r];
    o.row.ok = o.outcome.ok;
    o.row.code = o.outcome.code;
    o.row.attempts = o.outcome.attempts;
    result.simulated_time += o.row.sim_time;
    for (UnitFailure& f : o.inner_failures) {
      result.failures.push_back(std::move(f));
    }
    if (!o.row.ok) {
      band.add_failed();
      result.failures.push_back(
          {r, o.row.code, o.row.attempts,
           "replica " + std::to_string(r) +
               " failed:" + error_code_name(o.row.code)});
    } else {
      band.add_ok(o.row.observable);
    }
    ens.rows.push_back(std::move(o.row));
  }
  if (band.n_ok() == 0) {
    throw Error(ens.rows.empty() ? ErrorCode::kUnknown : ens.rows.back().code,
                "run_ensemble: all " + std::to_string(n) +
                    " replicas failed — no observable survives");
  }
  ens.observable_stats = to_band(band);

  if (input.sweep.has_value()) {
    // Cross-replica band per bias point; the top-level sweep table holds the
    // ensemble-mean rows so non-ensemble readers keep working.
    const std::vector<IvPoint>* grid = nullptr;
    for (const ReplicaRow& row : ens.rows) {
      if (row.ok && !row.sweep.empty()) {
        grid = &row.sweep;
        break;
      }
    }
    if (grid != nullptr) {
      const std::size_t np = grid->size();
      std::vector<EnsembleAccumulator> acc(
          np, EnsembleAccumulator(spec.yield_min, spec.yield_max));
      std::vector<std::uint64_t> ev(np, 0);
      for (const ReplicaRow& row : ens.rows) {
        if (!row.ok) {
          for (std::size_t p = 0; p < np; ++p) acc[p].add_failed();
          continue;
        }
        require(row.sweep.size() == np,
                "run_ensemble: replica sweep tables disagree in size");
        for (std::size_t p = 0; p < np; ++p) {
          if (row.sweep[p].status == PointStatus::kFailed) {
            acc[p].add_failed();
          } else {
            acc[p].add_ok(row.sweep[p].current);
          }
          ev[p] += row.sweep[p].events;
        }
      }
      result.sweep.reserve(np);
      ens.sweep_stats.reserve(np);
      for (std::size_t p = 0; p < np; ++p) {
        IvPoint mean_row;
        mean_row.bias = (*grid)[p].bias;
        mean_row.current = acc[p].mean();
        mean_row.stderr_mean =
            acc[p].n_ok() > 1
                ? acc[p].spread() / std::sqrt(static_cast<double>(acc[p].n_ok()))
                : 0.0;
        mean_row.rel_error = mean_row.current != 0.0
                                 ? std::abs(mean_row.stderr_mean /
                                            mean_row.current)
                                 : 0.0;
        mean_row.events = ev[p];
        mean_row.status =
            acc[p].n_ok() > 0 ? PointStatus::kOk : PointStatus::kFailed;
        result.sweep.push_back(mean_row);
        ens.sweep_stats.push_back({mean_row.bias, to_band(acc[p])});
      }
    }
  } else {
    // Top-level current = the cross-replica mean; for a 1-replica ensemble
    // this is the replica's own estimate verbatim.
    CurrentEstimate est;
    est.mean = band.mean();
    const CurrentEstimate* single = nullptr;
    for (const ReplicaRow& row : ens.rows) {
      if (!row.ok) continue;
      est.sim_time += row.current.sim_time;
      est.events += row.current.events;
      single = &row.current;
    }
    est.stderr_mean =
        band.n_ok() > 1
            ? band.spread() / std::sqrt(static_cast<double>(band.n_ok()))
            : single->stderr_mean;
    result.current = est;
  }

  result.events = result.counters.stats.events;
  result.ensemble = std::move(ens);
  return result;
}

}  // namespace semsim
