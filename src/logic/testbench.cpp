#include "logic/testbench.h"

#include <chrono>
#include <cmath>
#include <limits>

#include "analysis/delay.h"
#include "analysis/units.h"
#include "base/error.h"

namespace semsim {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Drives every benchmark input with DC at its base value; the toggled input
// gets `toggle_wave` instead (nullptr = DC at base too).
void program_inputs(const LogicBenchmark& bench, ElaboratedCircuit& elab,
                    const Waveform* toggle_wave) {
  const double vdd = elab.builder.params().vdd;
  const auto& ins = bench.netlist.inputs();
  require(bench.base_vector.size() == ins.size(),
          "program_inputs: base vector size mismatch");
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const NodeId node = elab.node(ins[i]);
    if (i == bench.toggle_input && toggle_wave != nullptr) {
      elab.circuit().set_source(node, *toggle_wave);
    } else {
      elab.circuit().set_source(node,
                                Waveform::dc(bench.base_vector[i] ? vdd : 0.0));
    }
  }
}

// The output-crossing detector config shared by every delay run of a
// benchmark (direction from the functional model).
DelayConfig delay_detector_config(const LogicBenchmark& bench,
                                  const ElaboratedCircuit& elab,
                                  const DelayRunConfig& cfg) {
  std::vector<bool> after = bench.base_vector;
  after[bench.toggle_input] = !after[bench.toggle_input];
  const SignalId out_sig = bench.netlist.outputs()[bench.observe_output];
  const bool rising =
      bench.netlist.evaluate(after)[static_cast<std::size_t>(out_sig)];

  DelayConfig dc;
  dc.output = elab.node(out_sig);
  dc.t_step = cfg.t_settle;
  dc.v_threshold = 0.5 * elab.builder.params().vdd;
  dc.rising = rising;
  dc.smoothing_tau = cfg.smoothing_tau;
  dc.t_max = cfg.t_settle + cfg.t_max_after;
  return dc;
}

}  // namespace

std::vector<std::pair<NodeId, long>> dc_preseed(const LogicBenchmark& bench,
                                                const ElaboratedCircuit& elab,
                                                const std::vector<bool>& inputs) {
  const SetLogicParams& p = elab.builder.params();
  const long n_high =
      -std::lround(p.vdd * p.c_wire / kElementaryCharge);
  const std::vector<bool> values = bench.netlist.evaluate(inputs);
  std::vector<std::pair<NodeId, long>> out;
  for (std::size_t s = 0; s < bench.netlist.signal_count(); ++s) {
    if (bench.netlist.gate(static_cast<SignalId>(s)).op == GateOp::kInput) {
      continue;
    }
    out.push_back({elab.node(static_cast<SignalId>(s)), values[s] ? n_high : 0});
  }
  // Elaboration-internal wires too (XOR intermediates, NAND/NOR interior
  // nodes): without them the settle window must absorb deep glitch cascades.
  const std::vector<bool> aux = elab.aux_values(values);
  for (std::size_t i = 0; i < aux.size(); ++i) {
    out.push_back({elab.aux[i].node, aux[i] ? n_high : 0});
  }
  return out;
}

DelayRunResult run_delay_experiment(const LogicBenchmark& bench,
                                    ElaboratedCircuit& elab,
                                    std::shared_ptr<const ElectrostaticModel> model,
                                    const DelayRunConfig& cfg) {
  require(is_sensitized(bench),
          "run_delay_experiment: benchmark vector is not sensitized");
  const SetLogicParams& p = elab.builder.params();
  const double vdd = p.vdd;

  const bool base_level = bench.base_vector[bench.toggle_input];
  const Waveform step = Waveform::step(base_level ? vdd : 0.0,
                                       base_level ? 0.0 : vdd, cfg.t_settle);
  program_inputs(bench, elab, &step);

  EngineOptions opt = cfg.engine;
  opt.temperature = p.temperature;
  opt.seed = cfg.seed;

  const auto t0 = Clock::now();
  Engine engine(elab.circuit(), opt, std::move(model));
  engine.set_electron_counts(dc_preseed(bench, elab, bench.base_vector));

  const DelayConfig dc = delay_detector_config(bench, elab, cfg);

  DelayRunResult res;
  res.delay = measure_propagation_delay(engine, dc);
  res.wall_seconds = seconds_since(t0);
  res.events = engine.event_count();
  res.stats = engine.stats();
  return res;
}

MultiSeedDelayResult run_delay_experiment_seeds(
    const LogicBenchmark& bench, ElaboratedCircuit& elab,
    std::shared_ptr<const ElectrostaticModel> model,
    const DelayRunConfig& base_cfg, std::uint64_t base_seed,
    std::size_t n_seeds, const ParallelExecutor& exec) {
  require(is_sensitized(bench),
          "run_delay_experiment_seeds: benchmark vector is not sensitized");
  const SetLogicParams& p = elab.builder.params();
  const double vdd = p.vdd;

  // Mutate the elaborated circuit ONCE, before the fan-out; every work
  // unit then only reads it (Waveform evaluation is const and stateless).
  const bool base_level = bench.base_vector[bench.toggle_input];
  const Waveform step = Waveform::step(base_level ? vdd : 0.0,
                                       base_level ? 0.0 : vdd,
                                       base_cfg.t_settle);
  program_inputs(bench, elab, &step);
  elab.circuit().build_caches();
  if (model == nullptr) {
    model = std::make_shared<const ElectrostaticModel>(elab.circuit());
  }

  const std::vector<std::pair<NodeId, long>> preseed =
      dc_preseed(bench, elab, bench.base_vector);
  const DelayConfig dc = delay_detector_config(bench, elab, base_cfg);

  EngineOptions opt = base_cfg.engine;
  opt.temperature = p.temperature;

  // One unit per seed; unit s's engine runs on derive_stream_seed(base_seed,
  // s) (UnitAttempt::engine).
  struct Seed : UnitWork {
    double delay = 0.0;
  };
  Units<Seed> units;
  units.count = n_seeds;
  units.name = "delay seed";
  units.body = [&](const UnitAttempt& a, Seed& s) {
    Engine& engine = a.engine(elab.circuit(), opt, model, nullptr);
    engine.set_electron_counts(preseed);
    s.delay = measure_propagation_delay(engine, dc);
  };

  MultiSeedDelayResult res;
  const UnitContext ctx{exec, {}, nullptr, nullptr, {}, base_seed};
  double acc = 0.0;
  for (const Seed& s : run_units(units, ctx, &res.counters)) {
    res.delays.push_back(s.delay);
    if (std::isfinite(s.delay)) {
      acc += s.delay;
      ++res.valid;
    }
  }
  res.mean_delay = res.valid > 0
                       ? acc / static_cast<double>(res.valid)
                       : std::numeric_limits<double>::quiet_NaN();
  return res;
}

PerfRunResult run_performance_window(const LogicBenchmark& bench,
                                     ElaboratedCircuit& elab,
                                     std::shared_ptr<const ElectrostaticModel> model,
                                     const PerfRunConfig& cfg) {
  const SetLogicParams& p = elab.builder.params();
  const double vdd = p.vdd;
  const bool base_level = bench.base_vector[bench.toggle_input];
  const Waveform pulses =
      Waveform::pulse(base_level ? vdd : 0.0, base_level ? 0.0 : vdd,
                      0.5 * cfg.pulse_period, 0.5 * cfg.pulse_period,
                      cfg.pulse_period);
  program_inputs(bench, elab, &pulses);

  EngineOptions opt = cfg.engine;
  opt.temperature = p.temperature;
  opt.seed = cfg.seed;

  Engine engine(elab.circuit(), opt, std::move(model));
  engine.set_electron_counts(dc_preseed(bench, elab, bench.base_vector));

  // Short settle before the measured window (not timed as simulation work
  // in the paper either — their times were normalized to simulated span).
  engine.run_events(std::max<std::uint64_t>(cfg.events / 10, 200));

  const auto t0 = Clock::now();
  const double sim_t0 = engine.time();
  PerfRunResult res;
  res.events = engine.run_events(cfg.events);
  res.wall_seconds = seconds_since(t0);
  res.simulated_seconds = engine.time() - sim_t0;
  res.stats = engine.stats();
  return res;
}

}  // namespace semsim
