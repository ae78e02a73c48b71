#include "analysis/sweep.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "analysis/api.h"
#include "analysis/units.h"
#include "base/error.h"

namespace semsim {

namespace {

/// The bias points a sweep config describes: from, from+step, ..., <= to+eps.
std::vector<double> sweep_points(const IvSweepConfig& cfg) {
  std::vector<double> points;
  const double eps = 0.5 * cfg.step;
  for (double v = cfg.from; v <= cfg.to + eps; v += cfg.step) points.push_back(v);
  return points;
}

/// One bias point: fixed-budget estimator, or the convergence-stopped one
/// when the sweep config enables it.
IvPoint measure_point(Engine& engine, const IvSweepConfig& cfg, double bias) {
  IvPoint p;
  p.bias = bias;
  if (cfg.stop.convergence_enabled()) {
    const ConvergedCurrentResult r = measure_current_converged(
        engine, cfg.probes, cfg.measure.warmup_events, cfg.stop);
    p.current = r.estimate.mean;
    p.stderr_mean = r.estimate.stderr_mean;
    p.rel_error = r.rel_error;
    p.tau_int = r.tau_int;
    p.events = r.estimate.events;
  } else {
    const CurrentEstimate est =
        measure_mean_current(engine, cfg.probes, cfg.measure);
    p.current = est.mean;
    p.stderr_mean = est.stderr_mean;
    p.rel_error = est.mean != 0.0 ? est.stderr_mean / std::fabs(est.mean) : 0.0;
    p.events = est.events;
  }
  return p;
}

/// The engine a run of consecutive points (a sweep chunk, a map row)
/// warm-starts along. A failed point retires it: its solver work and audit
/// trail go to `work` (when non-null), and rebuild(a) replaces it with a
/// fresh engine on the run's next retry stream a.
struct PointEngine {
  Engine* engine = nullptr;
  std::function<Engine&(std::uint32_t)> rebuild;
  UnitWork* work = nullptr;
  std::uint32_t stream_attempt = 0;

  void harvest() const {
    if (work != nullptr) work->add(*engine);
  }
  void retire() {
    harvest();
    engine = &rebuild(++stream_attempt);
  }
};

/// The strict-mode context of sweep point `index`.
std::string point_label(std::size_t index, double bias) {
  return "bias point " + std::to_string(index) + " (V = " +
         std::to_string(bias) + ")";
}

/// Runs one bias point with fault isolation (run_with_retry): recoverable
/// errors retry on a fresh engine, an exhausted point degrades to a
/// `failed:<code>` row with NaN values while the remaining points of the
/// run continue, and strict mode rethrows with the bias point in the
/// context chain. Cancellation is checked before the point, outside the
/// retry, so it never degrades into a (checkpointed) failed row.
IvPoint run_point_isolated(PointEngine& pe, const IvSweepConfig& cfg,
                           double bias,
                           const std::function<std::string()>& label) {
  throw_if_cancelled(cfg.cancel, "bias point");
  IvPoint p;
  const AttemptRecord rec = run_with_retry(
      cfg.retry,
      [&](std::uint32_t) {
        Engine& e = *pe.engine;
        e.set_dc_source(cfg.swept, bias);
        if (cfg.mirror >= 0) e.set_dc_source(cfg.mirror, -bias);
        e.rebase_time();  // blockade points can leave t at ~1e17 s
        p = measure_point(e, cfg, bias);
      },
      [&] { pe.retire(); }, label);
  if (!rec.ok) {
    p = IvPoint{};
    p.bias = bias;
    p.current = std::numeric_limits<double>::quiet_NaN();
    p.stderr_mean = p.current;
    p.rel_error = p.current;
  }
  p.status = !rec.ok            ? PointStatus::kFailed
             : rec.attempts > 1 ? PointStatus::kRetried
                                : PointStatus::kOk;
  p.error = rec.code;
  p.attempts = rec.attempts;
  return p;
}

/// The sweep checkpoint fingerprint covers everything that defines the
/// decomposition and the per-unit RNG streams, mixed with the caller's
/// run identity: resuming under a different sweep shape must be rejected.
std::uint64_t sweep_checkpoint_fingerprint(const IvSweepConfig& cfg,
                                           const ParallelSweepConfig& par,
                                           std::size_t n_points,
                                           std::uint64_t caller_fingerprint) {
  BinaryWriter w;
  w.u64(caller_fingerprint);
  w.u64(n_points);
  w.u64(par.points_per_unit);
  w.u64(par.base_seed);
  w.i64(cfg.swept);
  w.i64(cfg.mirror);
  w.f64(cfg.from);
  w.f64(cfg.to);
  w.f64(cfg.step);
  w.u64(cfg.probes.size());
  for (const CurrentProbe& p : cfg.probes) {
    w.u64(p.junction);
    w.f64(p.sign);
  }
  w.u64(cfg.measure.warmup_events);
  w.u64(cfg.measure.measure_events);
  w.u32(cfg.measure.blocks);
  w.u64(cfg.stop.max_events);
  w.f64(cfg.stop.target_rel_error);
  w.u64(cfg.stop.check_interval);
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

}  // namespace

std::string point_status_label(const IvPoint& p) {
  switch (p.status) {
    case PointStatus::kOk:
      return "ok";
    case PointStatus::kRetried:
      return "retried";
    case PointStatus::kFailed:
      return std::string("failed:") + error_code_name(p.error);
  }
  return "ok";
}

void encode_iv_point(BinaryWriter& w, const IvPoint& p) {
  w.f64(p.bias);
  w.f64(p.current);
  w.f64(p.stderr_mean);
  w.f64(p.rel_error);
  w.f64(p.tau_int);
  w.u64(p.events);
  w.u8(static_cast<std::uint8_t>(p.status));
  w.u32(static_cast<std::uint32_t>(p.error));
  w.u32(p.attempts);
}

IvPoint decode_iv_point(BinaryReader& r) {
  IvPoint p;
  p.bias = r.f64();
  p.current = r.f64();
  p.stderr_mean = r.f64();
  p.rel_error = r.f64();
  p.tau_int = r.f64();
  p.events = r.u64();
  p.status = static_cast<PointStatus>(r.u8());
  p.error = static_cast<ErrorCode>(r.u32());
  p.attempts = r.u32();
  return p;
}

std::vector<IvPoint> run_iv_sweep(const Circuit& circuit,
                                  const EngineOptions& options,
                                  const IvSweepConfig& cfg,
                                  const ParallelExecutor& exec,
                                  const ParallelSweepConfig& par,
                                  RunCounters* counters,
                                  const CheckpointConfig& ckpt,
                                  IntegrityReport* integrity) {
  require(cfg.step > 0.0, "run_iv_sweep: step must be positive");
  require(cfg.to >= cfg.from, "run_iv_sweep: to < from");
  require(!cfg.probes.empty(), "run_iv_sweep: no recorded junctions");
  require(par.points_per_unit >= 1,
          "run_iv_sweep: points_per_unit must be >= 1");

  const std::vector<double> points = sweep_points(cfg);
  const std::size_t per = par.points_per_unit;
  const auto first = [&](std::size_t u) { return u * per; };
  const auto size = [&](std::size_t u) {
    return std::min(points.size() - first(u), per);
  };

  // Shared state: one capacitance inversion and one quasi-particle table
  // for all engines (read-only but for its lock-free on-demand entries),
  // and warm adjacency caches so concurrent engine construction is
  // race-free.
  circuit.build_caches();
  auto model = std::make_shared<const ElectrostaticModel>(circuit);
  const auto qp_table = build_qp_table(circuit, *model, options);

  struct Chunk : UnitWork {
    std::vector<IvPoint> points;
  };
  Units<Chunk> units;
  units.count = (points.size() + per - 1) / per;
  units.points = points.size();
  units.name = "sweep chunk";
  units.encode = [](BinaryWriter& w, const Chunk& c) {
    w.u64(c.points.size());
    for (const IvPoint& p : c.points) encode_iv_point(w, p);
  };
  units.decode = [&](BinaryReader& r, std::size_t u) {
    Chunk c;
    require(r.u64() == size(u), "run_iv_sweep: checkpoint chunk size mismatch");
    for (std::size_t i = 0; i < size(u); ++i) {
      c.points.push_back(decode_iv_point(r));
    }
    return c;
  };
  units.body = [&](const UnitAttempt& a, Chunk& c) {
    std::optional<Engine> slot;
    const auto build = [&](std::uint32_t attempt) -> Engine& {
      return slot.emplace(
          circuit, unit_engine_options(options, par.base_seed, a.unit, attempt),
          model, qp_table);
    };
    PointEngine pe{&build(0), build, &c};
    for (std::size_t i = first(a.unit); i < first(a.unit) + size(a.unit); ++i) {
      c.points.push_back(run_point_isolated(
          pe, cfg, points[i], [&] { return point_label(i, points[i]); }));
    }
    pe.harvest();
  };
  units.finished = [&](std::size_t u, const Chunk& c) {
    if (cfg.progress != nullptr) {
      cfg.progress->on_sweep_points(first(u), c.points.data(), c.points.size());
    }
  };

  UnitContext ctx{exec, ckpt, cfg.cancel, cfg.progress, cfg.retry,
                  par.base_seed};
  ctx.checkpoint.fingerprint =
      sweep_checkpoint_fingerprint(cfg, par, points.size(), ckpt.fingerprint);
  const std::vector<Chunk> chunks = run_units(units, ctx, counters, integrity);
  std::vector<IvPoint> out;
  out.reserve(points.size());
  for (const Chunk& c : chunks) {
    out.insert(out.end(), c.points.begin(), c.points.end());
  }
  return out;
}

IvSweepConfig sweep_config_from_input(const SimulationInput& input) {
  require(input.sweep.has_value(),
          "sweep_config_from_input: input has no sweep directive");
  require(!input.record_junctions.empty(),
          "sweep_config_from_input: input has no record directive");
  IvSweepConfig cfg;
  cfg.swept = input.sweep->source;
  cfg.mirror = input.sweep->mirror;
  cfg.from = -input.sweep->max;
  cfg.to = input.sweep->max;
  cfg.step = input.sweep->step;
  cfg.probes = recorded_probes(input);
  cfg.measure = measure_config_from_input(input);
  return cfg;
}

std::vector<CurrentProbe> recorded_probes(const SimulationInput& input) {
  std::vector<CurrentProbe> probes;
  for (const std::size_t j : input.record_junctions) probes.push_back({j, 1.0});
  return probes;
}

CurrentMeasureConfig measure_config_from_input(const SimulationInput& input) {
  CurrentMeasureConfig cfg;
  cfg.measure_events = input.max_jumps > 0 ? input.max_jumps : 10000;
  cfg.warmup_events = std::max<std::uint64_t>(cfg.measure_events / 10, 100);
  return cfg;
}

namespace {

/// One gate row of a stability map: a bias sweep at a fixed gate, each
/// cell isolated like a sweep point; `pe`'s rebuild re-applies the row's
/// gate voltage to every fresh engine.
void run_map_row(PointEngine& pe, const StabilityMapConfig& cfg,
                 std::size_t g, std::vector<double>& row,
                 std::vector<MapCellStatus>& degraded) {
  IvSweepConfig cell;
  cell.swept = cfg.bias_node;
  cell.mirror = cfg.mirror;
  cell.probes = cfg.probes;
  cell.measure = cfg.measure;
  cell.retry = cfg.retry;
  pe.engine->set_dc_source(cfg.gate_node, cfg.gate_values[g]);
  for (std::size_t b = 0; b < cfg.bias_values.size(); ++b) {
    const IvPoint p =
        run_point_isolated(pe, cell, cfg.bias_values[b], [&] {
          return "stability map cell (gate row " + std::to_string(g) +
                 ", bias column " + std::to_string(b) + ")";
        });
    row[b] = std::fabs(p.current);
    if (p.status != PointStatus::kOk) {
      degraded.push_back({g, b, p.status, p.error, p.attempts});
    }
  }
}

}  // namespace

std::vector<std::vector<double>> run_stability_map(
    const Circuit& circuit, const EngineOptions& options,
    const StabilityMapConfig& cfg, const ParallelExecutor& exec,
    const ParallelSweepConfig& par, RunCounters* counters,
    StabilityMapReport* report) {
  require(!cfg.probes.empty(), "run_stability_map: no recorded junctions");

  circuit.build_caches();
  auto model = std::make_shared<const ElectrostaticModel>(circuit);
  const auto qp_table = build_qp_table(circuit, *model, options);

  struct Row : UnitWork {
    std::vector<double> values;
    std::vector<MapCellStatus> degraded;
  };
  Units<Row> units;
  units.count = cfg.gate_values.size();
  units.name = "stability-map row";
  units.body = [&](const UnitAttempt& a, Row& row) {
    std::optional<Engine> slot;
    const auto build = [&](std::uint32_t attempt) -> Engine& {
      Engine& e = slot.emplace(
          circuit, unit_engine_options(options, par.base_seed, a.unit, attempt),
          model, qp_table);
      if (attempt > 0) e.set_dc_source(cfg.gate_node, cfg.gate_values[a.unit]);
      return e;
    };
    PointEngine pe{&build(0), build, &row};
    row.values.assign(cfg.bias_values.size(), 0.0);
    run_map_row(pe, cfg, a.unit, row.values, row.degraded);
    pe.harvest();
  };
  const UnitContext ctx{exec, {}, nullptr, nullptr, cfg.retry, par.base_seed};
  const std::vector<Row> rows = run_units(
      units, ctx, counters, report != nullptr ? &report->integrity : nullptr);
  std::vector<std::vector<double>> map;
  for (const Row& row : rows) {
    map.push_back(row.values);
    if (report != nullptr) {
      report->degraded.insert(report->degraded.end(), row.degraded.begin(),
                              row.degraded.end());
    }
  }
  return map;
}

}  // namespace semsim
