// device_iv: the paper's device figures through run(), checkpointing on.
//
// Many small work units (sweep points, repeats, transient slices),
// checkpoint I/O and all three physics kernels (orthodox,
// quasi-particle/Cooper-pair, cotunneling) — layers the other workloads
// barely touch. Every sweep point and single-bias current is
// checked against the master-equation oracle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "master/master_equation.h"
#include "netlist/parser.h"

namespace semsim::bench {
namespace {

/// Operations (all eight inputs each) of an untraced run, ~2.4 s apiece,
/// and set-up operations (~1.6 s) among them.
constexpr int kOps = 5;
constexpr int kSetupOps = 3;

struct DeviceInput {
  std::string name;
  std::string text;
  bool adaptive = true;
};

constexpr const char* kSetBody =
    "num ext 3\nnum nodes 4\n"
    "junc 1 1 4 1meg 1a\njunc 2 4 2 1meg 1a\ncap 3 4 3a\n"
    "record 1 2\n";

/// The benchmark's device inputs, on fixed event budgets: convergence
/// stopping is biased high by ~6.7 % and fails the oracle (README, finding
/// 7). `setup` cuts every budget to 1000 events per work unit, leaving the
/// fixed cost of each request.
std::vector<DeviceInput> device_inputs(bool setup) {
  const auto jumps = [setup](const char* n, const char* repeats = "") {
    return "jumps " + std::string(setup ? "1000" : n) + repeats + "\n";
  };
  const auto set_family = [&](const char* vg) {
    return std::string(kSetBody) + "vdc 3 " + vg + "\nsymm 2\ntemp 5\n" +
           jumps("50000") + "sweep 1 0.05 0.01\n";
  };
  std::vector<DeviceInput> in;
  // Fig. 1b gate family. Vg = 0 runs the conventional solver: the adaptive
  // one fails invariant.fenwick_drift in deep blockade there (finding 8).
  in.push_back({"set_vg0", set_family("0"), false});
  in.push_back({"set_vg10", set_family("0.01"), true});
  in.push_back({"set_vg20", set_family("0.02"), true});
  // Fig. 1c superconducting SET at 50 mK, at +-50 mV: every sweep point
  // rebuilds the quasi-particle rate table (~0.45 s), the dominant cost of
  // the SSET inputs (finding 9), so they stay small.
  in.push_back({"sset_sweep",
                std::string(kSetBody) +
                    "vdc 3 0\nsymm 2\ntemp 0.05\nsuper 0.2 1.2\n" +
                    jumps("50000") + "sweep 1 0.05 0.1\n",
                true});
  // Single-bias runs take the repeats path and carry the full solver
  // counters (sweep documents drop the Cooper-pair/cotunneling split).
  in.push_back({"sset_point",
                std::string(kSetBody) +
                    "vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0\ntemp 0.05\n"
                    "super 0.2 1.2\n" + jumps("100000"),
                true});
  // Cotunneling through the blockade at T = 0.
  in.push_back({"cot_sweep",
                std::string(kSetBody) + "vdc 3 0\nsymm 2\ntemp 0\ncotunnel\n" +
                    jumps("50000") + "sweep 1 0.012 0.001\n",
                true});
  in.push_back({"cot_point",
                std::string(kSetBody) +
                    "vdc 1 0.004\nvdc 2 -0.004\nvdc 3 0\ntemp 0\ncotunnel\n" +
                    jumps("100000", " 4"),
                true});
  // Pulsed-gate transient: ~10^4 source breakpoints.
  in.push_back({"set_transient",
                std::string(kSetBody) +
                    "vdc 1 0.01\nvdc 2 -0.01\nvpulse 3 0 0.02 0 5n 10n\n"
                    "temp 5\n" +
                    (setup ? "time 1e-8\n" : "time 5e-5\n"),
                true});
  return in;
}

RunRequest request_for(const DeviceInput& in, std::uint64_t seed,
                       const std::string& checkpoint) {
  RunRequest req;
  req.seed = seed;
  req.adaptive = in.adaptive;
  req.threads = kThreads;
  req.checkpoint_path = checkpoint;
  return req;
}

/// Master-equation current averaged over the recorded junctions, with the
/// listed sources overridden by DC values.
double me_current(const SimulationInput& input, const EngineOptions& eo,
                  const std::vector<std::pair<NodeId, double>>& sources) {
  Circuit c = input.circuit;
  for (const auto& [node, v] : sources) c.set_source(node, Waveform::dc(v));
  const MasterEquationSolver me(c, eo);
  double sum = 0.0;
  for (const std::size_t j : input.record_junctions) sum += me.junction_current(j);
  return sum / static_cast<double>(input.record_junctions.size());
}

bool agrees(double mc, double sigma, double exact) {
  const double tol =
      std::max({5.0 * sigma, 0.02 * std::abs(exact), 1e-14});
  return std::abs(mc - exact) <= tol;
}

/// Oracle checks of one input's document (one tally per point or current).
void check_against_oracle(const DeviceInput& in, const RunRequest& req,
                          const JsonValue& doc, Report& report) {
  const SimulationInput input = parse_simulation_input(in.text);
  const EngineOptions eo = engine_options_for(input, req.driver_options());
  if (const JsonValue* sweep = doc.find("sweep")) {
    const SweepSpec& spec = *input.sweep;
    for (const JsonValue& row : sweep->items()) {
      const double v = row.at("bias_V").as_number();
      const double mc = row.at("current_A").as_number();
      const double sigma = row.at("stderr_A").as_number();
      std::vector<std::pair<NodeId, double>> src = {{spec.source, v}};
      if (spec.mirror >= 0) src.emplace_back(spec.mirror, -v);
      const double exact = me_current(input, eo, src);
      char what[160];
      std::snprintf(what, sizeof what,
                    "%s V=%.4f: status %s, MC %.4e A vs ME %.4e A",
                    in.name.c_str(), v, row.at("status").as_string().c_str(),
                    mc, exact);
      report.tally(row.at("status").as_string() == "ok" &&
                       agrees(mc, sigma, exact),
                   what);
    }
    return;
  }
  const JsonValue& cur = doc.at("current");
  const double mc = cur.at("mean_A").as_number();
  const double sigma = cur.at("stderr_A").as_number();
  char what[160];
  if (input.max_time > 0.0) {
    // Pulsed gate, 50 % duty between 0 and 20 mV: the mean current lies
    // between the two stationary currents.
    const double lo = me_current(input, eo, {{3, 0.0}});
    const double hi = me_current(input, eo, {{3, 0.02}});
    std::snprintf(what, sizeof what,
                  "%s: transient mean %.4e A outside the ME band [%.4e, %.4e]",
                  in.name.c_str(), mc, lo, hi);
    report.tally(mc >= std::min(lo, hi) && mc <= std::max(lo, hi), what);
    return;
  }
  const double exact = me_current(input, eo, {});
  std::snprintf(what, sizeof what, "%s: MC %.4e A (+-%.2e) vs ME %.4e A",
                in.name.c_str(), mc, sigma, exact);
  report.tally(agrees(mc, sigma, exact), what);
}

/// Engine options and circuit of an input at its first operating point
/// (the first sweep bias, or the input's own sources).
struct ProbeSetup {
  SimulationInput input;
  EngineOptions options;
};

ProbeSetup probe_setup(const DeviceInput& in, const RunRequest& req) {
  ProbeSetup p;
  p.input = parse_simulation_input(in.text);
  p.options = engine_options_for(p.input, req.driver_options());
  if (p.input.sweep) {
    const SweepSpec& s = *p.input.sweep;
    p.input.circuit.set_source(s.source, Waveform::dc(-s.max));
    if (s.mirror >= 0) p.input.circuit.set_source(s.mirror, Waveform::dc(s.max));
  }
  return p;
}

}  // namespace

void run_device_iv(const Options& opt, Tracer& tracer, Report& report) {
  const std::vector<DeviceInput> inputs = device_inputs(false);
  const std::string dir = opt.out_dir + "/device_iv";
  std::filesystem::create_directories(dir);
  const auto ckpt_path = [&](const DeviceInput& in) {
    return dir + "/" + in.name + ".ckpt";
  };
  std::vector<RunRequest> reqs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reqs.push_back(request_for(inputs[i], input_seed(opt.seed, 1, i),
                               ckpt_path(inputs[i])));
  }
  // One repeat: every input from text to its canonical document on disk,
  // each timed on its own so the host clock calibrates around it; `wall`
  // gets their sum. A stale checkpoint would be resumed, so each run starts
  // without one.
  HostClock clock(kComputeBound);
  const auto repeat = [&](const std::vector<DeviceInput>& in,
                          const std::vector<RunRequest>& rq, double& wall) {
    std::vector<OpResult> out;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!rq[i].checkpoint_path.empty()) remove_file(rq[i].checkpoint_path);
      const std::string& text = in[i].text;
      wall += clock.time([&] {
        out.push_back(run_to_document(
            tracer, in[i].name,
            [&tracer, &text] {
              Tracer::Scope s = tracer.span("netlist.parse");
              return parse_simulation_input(text);
            },
            rq[i], dir + "/" + in[i].name + ".json"));
      });
    }
    return out;
  };

  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<std::vector<OpResult>> runs;
  const auto timed = [&](int k) {
    Tracer::set_trace("device_iv/" + std::to_string(k));
    double wall = 0.0;
    std::vector<OpResult> ops = repeat(inputs, reqs, wall);
    double events = 0.0;
    for (const OpResult& op : ops) {
      events += JsonValue::parse(op.doc).at("events").as_number();
    }
    walls.push_back(wall);
    rates.push_back(events / wall);
    runs.push_back(std::move(ops));
  };
  if (opt.trace) {
    timed(0);
  } else {
    std::vector<DeviceInput> setup_inputs = device_inputs(true);
    std::vector<RunRequest> setup_reqs;
    for (std::size_t i = 0; i < setup_inputs.size(); ++i) {
      setup_inputs[i].name += ".setup";  // its own document and checkpoint
      setup_reqs.push_back(request_for(setup_inputs[i], reqs[i].seed,
                                       ckpt_path(setup_inputs[i])));
    }
    report.metric("setup_s", "s",
                  run_schedule(kOps, kSetupOps, timed, [&] {
                    double wall = 0.0;
                    repeat(setup_inputs, setup_reqs, wall);
                    return wall;
                  }));
    report_host(clock, report);
  }

  // Checks: identical documents across repeats, oracle agreement, clean
  // integrity trail.
  DocCounts counts;
  double ckpt_bytes = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string& doc = runs.front()[i].doc;
    const std::string hash = fnv1a_hex(doc);
    report.hash(inputs[i].name, hash);
    for (const auto& ops : runs) {
      report.tally(fnv1a_hex(ops[i].doc) == hash,
                   inputs[i].name + ": document differs across repeats");
    }
    const JsonValue parsed = JsonValue::parse(doc);
    counts.add(parsed, doc.size());
    report.tally(parsed.at("integrity").at("issues").items().empty() &&
                     !parsed.at("degraded").as_bool(),
                 inputs[i].name + ": integrity issues or degraded units");
    check_against_oracle(inputs[i], reqs[i], parsed, report);
    ckpt_bytes += static_cast<double>(file_size(reqs[i].checkpoint_path));
  }
  counts.report_counts(report);

  if (!opt.trace) {
    report.metric("wall_s", "s", walls);
    report.metric("events_per_s", "1/s", rates);
    report.metric("peak_rss_mb", "MiB",
                  peak_rss_mb() - HostClock::kTableMiB);
    return;
  }

  // ---- traced pass: per-layer metrics -----------------------------------
  const std::vector<OpResult>& ops = runs.front();
  std::vector<double> input_s, run_s, json_s;
  double run_total = 0.0;
  for (const OpResult& op : ops) {
    input_s.push_back(op.input_s);
    run_s.push_back(op.run_s);
    json_s.push_back(op.json_s);
    run_total += op.run_s;
  }
  report.metric("netlist.input_s", "s", input_s);
  report.metric("analysis.run_s", "s", run_s);
  report.metric("io.to_json_s", "s", json_s);
  counts.report_ratios(report);
  report.metric("obs.checkpoint_bytes", "B", ckpt_bytes);

  std::vector<double> model_s;
  double weighted_ns = 0.0;
  double core_s = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Tracer::set_trace("device_iv/probe/" + inputs[i].name);
    const ProbeSetup p = probe_setup(inputs[i], reqs[i]);
    model_s.push_back(time_model_build(tracer, p.input.circuit));
    const double ns =
        probe_ns_per_event(tracer, inputs[i].name, p.input.circuit, p.options,
                           0.1);
    const double events =
        JsonValue::parse(ops[i].doc).at("events").as_number();
    report.metric("core.ns_per_event." + inputs[i].name, "ns", ns);
    weighted_ns += ns * events;
    core_s += ns * 1e-9 * events;
  }
  report.metric("netlist.model_build_s", "s", model_s);
  report.metric("core.ns_per_event", "ns", weighted_ns / counts.events);
  report.metric("analysis.core_utilization", "ratio",
                core_s / (kThreads * run_total));

  // The same SET sweep on four workers: the thread speedup, and the
  // determinism contract (identical document at every thread count).
  Tracer::set_trace("device_iv/threads4");
  const std::size_t k = 2;  // set_vg20
  RunRequest four = reqs[k];
  four.threads = 4;
  remove_file(four.checkpoint_path);
  const OpResult wide = run_to_document(
      tracer, inputs[k].name,
      [&] { return parse_simulation_input(inputs[k].text); }, four,
      dir + "/" + inputs[k].name + ".threads4.json");
  report.metric("analysis.thread_speedup", "ratio", ops[k].run_s / wide.run_s);
  report.tally(wide.doc == ops[k].doc,
               "set_vg20: 4-thread document differs from 1-thread document");

  // One repeat without checkpoints. Checkpointing changes the transient's
  // trajectory, so only its wall is compared.
  Tracer::set_trace("device_iv/no_checkpoint");
  std::vector<RunRequest> plain = reqs;
  for (RunRequest& r : plain) r.checkpoint_path.clear();
  double plain_wall = 0.0;
  repeat(inputs, plain, plain_wall);
  report.metric("obs.checkpoint_overhead_frac", "ratio",
                (walls.front() - plain_wall) / plain_wall);
}

}  // namespace semsim::bench
