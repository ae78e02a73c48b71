#include "analysis/driver.h"

#include <chrono>
#include <memory>
#include <optional>

#include "analysis/api.h"
#include "analysis/ensemble_driver.h"
#include "analysis/units.h"
#include "base/constants.h"
#include "base/error.h"
#include "base/math_util.h"
#include "core/partition.h"

namespace semsim {

namespace {

/// Mean current through `probes` over a window of length dt: each probe's
/// charge transferred since its q0 mark (none for an unmarked probe).
template <typename Transferred>
CurrentEstimate window_current(const std::vector<CurrentProbe>& probes,
                               Transferred&& transferred_e,
                               const std::vector<double>& q0, double dt,
                               std::uint64_t events) {
  double acc = 0.0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double q_end = transferred_e(probes[i].junction);
    acc += probes[i].sign * kElementaryCharge *
           (q_end - (i < q0.size() ? q0[i] : q_end));
  }
  CurrentEstimate est;
  est.mean = dt > 0.0 ? acc / static_cast<double>(probes.size()) / dt : 0.0;
  est.sim_time = dt;
  est.events = events;
  return est;
}

/// The domain-decomposed measurement path (core/partition.h): one global
/// trajectory advanced by per-cluster engines under conservative time
/// windowing. Shape and estimator mirror the transient path — warm up,
/// then measure the mean current from transfer-count deltas over the
/// measured span — except the span is defined in events (`jumps`), the
/// warm-up is `jumps`/10, and the standard error comes from eight
/// contiguous blocks of per-barrier samples.
///
/// The run is a sequence (analysis/units.h) of 33 milestones: the warm-up,
/// then every 32nd of the measured events.
DriverResult run_partitioned(const SimulationInput& input,
                             const DriverOptions& options) {
  // Coded kCircuitInvalid so the CLI exits 3 ("your input is wrong") and
  // the daemon answers a coded error response, per the exit-code table.
  require(!input.sweep.has_value(), ErrorCode::kCircuitInvalid,
          "partition: sweeps are not supported; partition the single-run "
          "measurement instead");
  require(input.max_time == 0.0, ErrorCode::kCircuitInvalid,
          "partition: time-bounded transients are not supported");
  require(input.repeats <= 1, ErrorCode::kCircuitInvalid,
          "partition: `jumps <n> <repeats>` multi-seed runs are not "
          "supported");
  require(!options.stop.convergence_enabled(), ErrorCode::kCircuitInvalid,
          "partition: convergence stopping is not supported");

  const EngineOptions eo = engine_options_for(input, options);
  const std::vector<CurrentProbe> probes = recorded_probes(input);
  require(!probes.empty(),
          "run_simulation: current measurement requires `record`");

  UnitContext ctx = unit_context(input, options, options.seed);

  const CurrentMeasureConfig budget = measure_config_from_input(input);
  const std::uint64_t jumps = budget.measure_events;
  const std::uint64_t warmup = budget.warmup_events;
  // The 1-cluster chunk size: run_events chunks are trajectory-neutral, so
  // this only fixes where the (canonicalizing) milestones can land; any
  // configuration-pure value works.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(64, (warmup + jumps) / 256);
  constexpr std::uint64_t kSlices = 32;
  const auto milestone = [&](std::uint64_t u) {
    return (jumps * u + kSlices - 1) / kSlices;
  };

  const auto wall0 = std::chrono::steady_clock::now();
  input.circuit.build_caches();
  // The global model feeds only the planner's kappa scan; each cluster
  // engine factorizes its own (much smaller) sub-circuit model.
  const ElectrostaticModel model(input.circuit);
  PartitionedEngine part(input.circuit, model, eo, options.partition,
                         &ctx.exec);

  bool warmed = false;
  std::uint64_t warm_events = 0;
  double t0 = 0.0;
  std::vector<double> q0;
  // Per-barrier samples after warm-up: (time, summed signed transfer),
  // feeding the blocked standard error below.
  std::vector<double> sample_t;
  std::vector<double> sample_q;

  const auto signed_transfer = [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      acc += probes[i].sign * part.junction_transferred_e(probes[i].junction);
    }
    return acc;
  };

  Sequence seq;
  seq.count = kSlices + 1;
  seq.name = "partition milestone";
  seq.advance = [&](std::size_t k) {
    // Milestone k is reached at the first barrier past it.
    while (!warmed ||
           (k > 0 && part.total_events() - warm_events < milestone(k))) {
      if (part.exhausted()) return false;  // nothing can ever fire again
      part.advance_window(chunk);
      const std::uint64_t total = part.total_events();
      if (!warmed && total >= warmup) {
        warmed = true;
        warm_events = total;
        t0 = part.time();
        q0.clear();
        for (const CurrentProbe& p : probes) {
          q0.push_back(part.junction_transferred_e(p.junction));
        }
      }
      if (warmed) {
        sample_t.push_back(part.time());
        sample_q.push_back(signed_transfer());
      }
    }
    return true;
  };
  seq.encode = [&](BinaryWriter& w) {
    const std::vector<EngineSnapshot> snaps = part.snapshot_clusters();
    w.u32(static_cast<std::uint32_t>(snaps.size()));
    for (const EngineSnapshot& s : snaps) encode_engine_snapshot(w, s);
    w.u64(part.windows_done());
    w.u8(warmed ? 1 : 0);
    w.u64(warm_events);
    w.f64(t0);
    w.vec_f64(q0);
    w.vec_f64(sample_t);
    w.vec_f64(sample_q);
  };
  seq.decode = [&](BinaryReader& r) {
    const std::uint32_t n = r.u32();
    std::vector<EngineSnapshot> snaps;
    for (std::uint32_t c = 0; c < n; ++c) {
      snaps.push_back(decode_engine_snapshot(r));
    }
    const std::uint64_t windows = r.u64();
    warmed = r.u8() != 0;
    warm_events = r.u64();
    t0 = r.f64();
    q0 = r.vec_f64();
    sample_t = r.vec_f64();
    sample_q = r.vec_f64();
    part.restore_clusters(snaps, windows);
  };
  ctx.tag_checkpoint("partition", kSlices);
  run_sequence(seq, ctx);

  DriverResult result;
  if (!warmed) {
    // Exhausted before the warm-up target: measure nothing.
    t0 = part.time();
  }
  CurrentEstimate est = window_current(
      probes, [&](std::size_t j) { return part.junction_transferred_e(j); },
      q0, part.time() - t0, part.total_events());
  // Blocked standard error: eight contiguous blocks of barrier samples,
  // each contributing its own mean-current slope.
  if (sample_t.size() >= 16) {
    RunningStats blocks;
    const std::size_t n = sample_t.size();
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t lo = b * n / 8;
      const std::size_t hi = std::min(n - 1, (b + 1) * n / 8);
      const double bt = sample_t[hi] - sample_t[lo];
      if (bt > 0.0) {
        blocks.add(kElementaryCharge * (sample_q[hi] - sample_q[lo]) /
                   static_cast<double>(probes.size()) / bt);
      }
    }
    if (blocks.count() > 1) est.stderr_mean = blocks.stderr_mean();
  }
  result.current = est;
  result.simulated_time = part.time();
  result.events = part.total_events();
  result.counters.stats = part.merged_stats();
  result.integrity.merge(part.merged_integrity());
  result.counters.threads = ctx.exec.threads();
  result.counters.units = part.clusters();
  result.counters.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return result;
}

}  // namespace

std::uint64_t run_fingerprint(const SimulationInput& input,
                              const RunSpec& spec) {
  BinaryWriter w;
  w.u64(input.circuit.node_count());
  w.u64(input.circuit.junction_count());
  for (const Junction& j : input.circuit.junctions()) {
    w.i64(j.a);
    w.i64(j.b);
    w.f64(j.resistance);
    w.f64(j.capacitance);
  }
  w.u64(input.circuit.capacitor_count());
  for (const Capacitor& c : input.circuit.capacitors()) {
    w.i64(c.a);
    w.i64(c.b);
    w.f64(c.capacitance);
  }
  // The rest of the circuit: every node's kind, each lead's waveform, each
  // island's background charge and the superconducting material. Two
  // inputs that differ only there simulate different physics, so they
  // must never share a cached result or a checkpoint.
  for (NodeId n = 0; n < static_cast<NodeId>(input.circuit.node_count());
       ++n) {
    const NodeKind kind = input.circuit.node(n).kind;
    w.u8(static_cast<std::uint8_t>(kind));
    if (kind == NodeKind::kExternal) {
      w.vec_f64(input.circuit.source(n).definition());
    } else if (kind == NodeKind::kIsland) {
      w.f64(input.circuit.background_charge_e(n));
    }
  }
  w.u8(input.circuit.superconducting() ? 1 : 0);
  if (input.circuit.superconducting()) {
    w.f64(input.circuit.superconducting_params().delta0);
    w.f64(input.circuit.superconducting_params().tc);
  }
  w.f64(input.temperature);
  w.u8(input.cotunneling ? 1 : 0);
  w.u64(input.max_jumps);
  w.u32(input.repeats);
  w.f64(input.max_time);
  w.u64(input.record_junctions.size());
  for (const std::size_t j : input.record_junctions) w.u64(j);
  w.u8(input.sweep.has_value() ? 1 : 0);
  if (input.sweep) {
    w.i64(input.sweep->source);
    w.i64(input.sweep->mirror);
    w.f64(input.sweep->max);
    w.f64(input.sweep->step);
  }
  // Options tail, in a frozen order. The third byte is the slot of the
  // retired fast_rates flag (an approximate thermal kernel): always 0, so
  // every run keeps the fingerprint, checkpoints and cached results it had
  // when the flag existed.
  w.u64(spec.seed);
  w.u8(spec.adaptive ? 1 : 0);
  w.u8(0);
  w.u64(spec.stop.max_events);
  w.f64(spec.stop.target_rel_error);
  w.u64(spec.stop.check_interval);
  // Convergence appendix: a convergence-stopped current is total charge
  // over total time, and no longer the mean of the per-chunk currents
  // (16/15 high). The tag keeps a checkpoint or cached result of that
  // estimator from resuming into or answering for this one; runs without
  // convergence stopping keep their fingerprint.
  if (spec.stop.convergence_enabled()) w.str("current: charge over time");
#define SEMSIM_FIELD_FP_U64(v) w.u64(v);
#define SEMSIM_FIELD_FP_U32(v) w.u32(v);
#define SEMSIM_FIELD_FP_F64(v) w.f64(v);
#define SEMSIM_FIELD_FP_DIST(v) w.u8(static_cast<std::uint8_t>(v));
  // Ensemble appendix: ONLY when enabled, so every pre-ensemble fingerprint
  // (and with it every existing checkpoint and cached result) is unchanged.
  if (spec.ensemble.enabled) {
    w.u8(1);
#define SEMSIM_ENSEMBLE_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_FP_##KIND(spec.ensemble.member)
#include "analysis/run_fields.inc"
  }
  // Partition appendix, gated exactly like the ensemble one: a disabled
  // spec contributes zero bytes, so pre-partition fingerprints (and every
  // cached result/checkpoint keyed by them) stay byte-identical.
  if (spec.partition.enabled) {
    w.u8(1);
#define SEMSIM_PARTITION_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_FP_##KIND(spec.partition.member)
#include "analysis/run_fields.inc"
  }
#undef SEMSIM_FIELD_FP_U64
#undef SEMSIM_FIELD_FP_U32
#undef SEMSIM_FIELD_FP_F64
#undef SEMSIM_FIELD_FP_DIST
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

namespace {

/// Sweeps: the I-V sweep of analysis/sweep.h, one work unit per chunk of
/// bias points.
DriverResult run_sweep(const SimulationInput& input,
                       const DriverOptions& options) {
  require(!input.record_junctions.empty(),
          "run_simulation: sweep requires a `record` directive");
  IvSweepConfig cfg = sweep_config_from_input(input);
  if (options.stop.convergence_enabled()) {
    cfg.stop = options.stop;
    // `jumps` keeps meaning an event budget: reuse it as the hard cap
    // when the stop criterion does not bring its own.
    if (cfg.stop.max_events == 0) cfg.stop.max_events = input.max_jumps;
  }
  cfg.retry = options.retry;
  cfg.cancel = options.cancel;
  cfg.progress = options.progress;
  ParallelSweepConfig par;
  par.base_seed = options.seed;
  const UnitContext ctx = unit_context(input, options, options.seed);
  DriverResult result;
  result.sweep = run_iv_sweep(input.circuit, engine_options_for(input, options),
                              cfg, ctx.exec, par, &result.counters,
                              ctx.checkpoint, &result.integrity);
  for (std::size_t i = 0; i < result.sweep.size(); ++i) {
    const IvPoint& p = result.sweep[i];
    if (p.status != PointStatus::kFailed) continue;
    result.failures.push_back(
        {i, p.error, p.attempts,
         "sweep point " + std::to_string(i) + " (V = " +
             std::to_string(p.bias) + ") " + point_status_label(p)});
  }
  result.events = result.counters.stats.events;
  return result;
}

/// Fixed simulated span: a single transient, inherently serial. Measure over
/// the whole window after a warm-up tenth (paper: "until the desired
/// simulation time is met"). The run is a sequence (analysis/units.h) of 33
/// milestones: the warm-up, then 32 equal time slices of the measured span.
DriverResult run_transient(const SimulationInput& input,
                           const DriverOptions& options) {
  const EngineOptions eo = engine_options_for(input, options);
  const std::vector<CurrentProbe> probes = recorded_probes(input);
  UnitContext ctx = unit_context(input, options, options.seed);

  const auto wall0 = std::chrono::steady_clock::now();
  Engine engine(input.circuit, eo);
  const double warmup_t = 0.1 * input.max_time;
  double t0 = 0.0;
  std::vector<double> q0;
  constexpr std::uint64_t kSlices = 32;

  Sequence seq;
  seq.count = kSlices + 1;
  seq.name = "transient slice";
  seq.advance = [&](std::size_t k) {
    if (k == 0) {
      engine.run_until(warmup_t);
      t0 = engine.time();
      q0.clear();
      for (const CurrentProbe& p : probes) {
        q0.push_back(engine.junction_transferred_e(p.junction));
      }
    } else {
      engine.run_until(k == kSlices
                           ? input.max_time
                           : warmup_t + static_cast<double>(k) *
                                            (input.max_time - warmup_t) /
                                            kSlices);
    }
    return true;
  };
  seq.encode = [&](BinaryWriter& w) {
    encode_engine_snapshot(w, engine.snapshot());
    w.f64(t0);
    w.vec_f64(q0);
  };
  seq.decode = [&](BinaryReader& r) {
    engine.restore(decode_engine_snapshot(r));
    t0 = r.f64();
    q0 = r.vec_f64();
  };
  ctx.tag_checkpoint("transient", kSlices);
  run_sequence(seq, ctx);

  DriverResult result;
  if (!probes.empty()) {
    result.current = window_current(
        probes, [&](std::size_t j) { return engine.junction_transferred_e(j); },
        q0, engine.time() - t0, engine.event_count());
  }
  result.simulated_time = engine.time();
  result.events = engine.event_count();
  result.integrity.merge(engine.integrity_report());
  result.counters.stats = engine.stats();
  result.counters.units = 1;
  result.counters.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return result;
}

/// One repeat of the `jumps` measurement.
struct RepeatResult : UnitWork {
  CurrentEstimate estimate;
  double sim_time = 0.0;
  /// Convergence mode only: the repeat's sample statistics.
  ConvergedCurrentResult converged;
};

/// The paper's `jumps <count> <repeats>`: independent reruns averaged
/// (Fig. 7 uses nine such repeats per point). Each repeat is a work unit
/// with its own engine, seeded from (seed, repeat_index) so the averaged
/// estimate is identical for every thread count.
DriverResult run_repeats(const SimulationInput& input,
                         const DriverOptions& options) {
  require(!input.record_junctions.empty(),
          "run_simulation: current measurement requires `record`");
  const EngineOptions eo = engine_options_for(input, options);
  const std::vector<CurrentProbe> probes = recorded_probes(input);
  const CurrentMeasureConfig cfg = measure_config_from_input(input);
  const std::uint32_t repeats = std::max<std::uint32_t>(input.repeats, 1);
  const bool use_convergence = options.stop.convergence_enabled();
  StopCriterion stop = options.stop;
  if (use_convergence && stop.max_events == 0) {
    stop.max_events = cfg.measure_events;
  }

  input.circuit.build_caches();
  auto model = std::make_shared<const ElectrostaticModel>(input.circuit);
  const auto qp_table = build_qp_table(input.circuit, *model, eo);

  Units<RepeatResult> units;
  units.count = repeats;
  units.name = "repeat";
  units.isolated = true;
  units.encode = [&](BinaryWriter& w, const RepeatResult& r) {
    w.f64(r.estimate.mean);
    w.f64(r.estimate.stderr_mean);
    w.f64(r.estimate.sim_time);
    w.u64(r.estimate.events);
    w.f64(r.sim_time);
    w.u8(use_convergence ? 1 : 0);
    if (use_convergence) {
      r.converged.samples.encode(w);
      w.f64(r.converged.tau_int);
      w.f64(r.converged.rel_error);
      w.u8(r.converged.converged ? 1 : 0);
    }
  };
  units.decode = [&](BinaryReader& rd, std::size_t) {
    RepeatResult r;
    r.estimate.mean = rd.f64();
    r.estimate.stderr_mean = rd.f64();
    r.estimate.sim_time = rd.f64();
    r.estimate.events = rd.u64();
    r.sim_time = rd.f64();
    const bool has_samples = rd.u8() != 0;
    require(has_samples == use_convergence,
            "checkpoint: repeat payload does not match the stop criterion");
    if (has_samples) {
      r.converged.samples = BinningAccumulator::decode(rd);
      r.converged.tau_int = rd.f64();
      r.converged.rel_error = rd.f64();
      r.converged.converged = rd.u8() != 0;
      r.converged.estimate = r.estimate;
    }
    return r;
  };
  units.body = [&](const UnitAttempt& a, RepeatResult& r) {
    Engine& engine = a.engine(input.circuit, eo, model, qp_table);
    if (use_convergence) {
      r.converged =
          measure_current_converged(engine, probes, cfg.warmup_events, stop);
      r.estimate = r.converged.estimate;
    } else {
      r.estimate = measure_mean_current(engine, probes, cfg);
    }
    r.sim_time = engine.time();
  };
  UnitContext ctx = unit_context(input, options, options.seed);
  ctx.tag_checkpoint("repeats", repeats);
  DriverResult result;
  const std::vector<RepeatResult> runs_out =
      run_units(units, ctx, &result.counters, &result.integrity);

  // Failed repeats contribute their work counters and audit trail (merged
  // by the runner) but are excluded from the statistics; the run degrades
  // to the surviving repeats. Index order keeps every statistic bitwise
  // independent of the worker count.
  RunningStats runs;
  ConvergedCurrentResult merged;
  double charge = 0.0;     // convergence mode: signed charge [C] ...
  double span = 0.0;       // ... over measured time [s], summed
  bool all_converged = true;
  const RepeatResult* last_ok = nullptr;
  for (std::size_t rpt = 0; rpt < runs_out.size(); ++rpt) {
    const RepeatResult& r = runs_out[rpt];
    result.simulated_time += r.sim_time;
    if (!r.outcome.ok) {
      result.failures.push_back(
          {rpt, r.outcome.code, r.outcome.attempts,
           "repeat " + std::to_string(rpt) + " failed:" +
               error_code_name(r.outcome.code)});
      continue;
    }
    runs.add(r.estimate.mean);
    if (use_convergence) {
      merged.samples.merge(r.converged.samples);
      charge += r.estimate.mean * r.estimate.sim_time;
      span += r.estimate.sim_time;
      all_converged = all_converged && r.converged.converged;
    }
    last_ok = &r;
  }
  if (last_ok == nullptr) {
    throw Error(result.failures.empty() ? ErrorCode::kUnknown
                                        : result.failures.back().code,
                "run_simulation: all " + std::to_string(runs_out.size()) +
                    " repeats failed — no current estimate survives");
  }
  CurrentEstimate est = last_ok->estimate;
  if (use_convergence) {
    // Like each repeat, the merged current is total charge over total
    // measured time. The merged accumulator gives the error bar: its binned
    // error accounts for in-stream autocorrelation, which the naive spread
    // over a handful of repeat means cannot.
    est.mean = span > 0.0 ? charge / span : 0.0;
    est.stderr_mean = merged.samples.binned_error();
    merged.estimate = est;
    merged.tau_int = merged.samples.tau_int();
    merged.rel_error = merged.samples.rel_error();
    merged.converged = all_converged;
    result.converged = std::move(merged);
  } else {
    est.mean = runs.mean();
    if (runs.count() > 1) est.stderr_mean = runs.stderr_mean();
  }
  result.current = est;
  result.events = result.counters.stats.events;
  return result;
}

}  // namespace

DriverResult run_simulation(const SimulationInput& input,
                            const DriverOptions& options) {
  // Ensemble runs replicate the whole input N times with perturbed element
  // values; everything below this dispatch is the single-device path the
  // ensemble driver builds on (and recurses into, with ensemble disabled).
  if (options.ensemble.enabled) return run_ensemble(input, options);

  // Domain-decomposed single-run path (core/partition.h). Dispatched on
  // the request flag, not the effective cluster count: a partition the
  // planner refuses to cut still runs through the partitioned runner (on
  // its bitwise-solo 1-cluster path), so the fingerprint, checkpoint
  // layout and result document are consistent for every `--partitions`
  // value.
  if (options.partition.enabled) return run_partitioned(input, options);
  if (input.sweep) return run_sweep(input, options);
  if (input.max_time > 0.0) return run_transient(input, options);
  return run_repeats(input, options);
}

}  // namespace semsim
