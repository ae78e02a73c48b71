// ensemble_chain: a 64-replica variability population of a 256-stage SET
// chain through run() — the only workload on the fused lockstep gang (the
// served ensemble jobs are sweeps, which take the per-replica path), so a
// gang change moves this workload and leaves served_mix unchanged.
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "netlist/parser.h"

namespace semsim::bench {
namespace {

constexpr int kStages = 256;
constexpr unsigned kReplicas = 64;
/// Events per replica of one operation.
constexpr long kJumps = 20000;
/// Operations of an untraced run, ~1 s apiece, and set-up operations
/// (1000 events per replica, ~0.07 s) among them.
constexpr int kOps = 16;
constexpr int kSetupOps = 5;

/// The chain as .sem text: 0.5 aF neighbour coupling (partial flagging),
/// 20 aF to ground, +-10 mV, 4.2 K. `jumps` is the per-replica budget.
std::string chain_text(long jumps) {
  std::string t = "num ext 2\nnum nodes " + std::to_string(kStages + 2) + "\n";
  int j = 1;
  for (int s = 0; s < kStages; ++s) {
    const std::string island = std::to_string(3 + s);
    t += "junc " + std::to_string(j++) + " 1 " + island + " 1meg 1a\n";
    t += "junc " + std::to_string(j++) + " " + island + " 2 1meg 1a\n";
    t += "cap " + island + " 0 20a\n";
    if (s > 0) t += "cap " + std::to_string(2 + s) + " " + island + " 0.5a\n";
  }
  t += "vdc 1 0.01\nvdc 2 -0.01\ntemp 4.2\nrecord 1 2\n";
  t += "jumps " + std::to_string(jumps) + "\n";
  return t;
}

}  // namespace

void run_ensemble_chain(const Options& opt, Tracer& tracer, Report& report) {
  const std::string dir = opt.out_dir + "/ensemble_chain";
  std::filesystem::create_directories(dir);
  RunRequest req;
  req.seed = input_seed(opt.seed, 2, 0);
  req.threads = kThreads;
  req.ensemble.enabled = true;
  req.ensemble.replicas = kReplicas;
  req.ensemble.seed = input_seed(opt.seed, 2, 1);
  req.ensemble.bg_charge.spread = 0.02;

  const auto op = [&](const std::string& text) {
    return run_to_document(
        tracer, "chain",
        [&tracer, &text] {
          Tracer::Scope s = tracer.span("netlist.parse");
          return parse_simulation_input(text);
        },
        req, dir + "/chain.json");
  };

  const std::string text = chain_text(kJumps);
  std::vector<OpResult> ops;
  std::vector<double> walls, rates;
  HostClock clock(kComputeBound);
  const auto timed = [&](int k) {
    Tracer::set_trace("ensemble_chain/" + std::to_string(k));
    const double wall = clock.time([&] { ops.push_back(op(text)); });
    const double events =
        JsonValue::parse(ops.back().doc).at("events").as_number();
    walls.push_back(wall);
    rates.push_back(events / wall);
  };
  if (opt.trace) {
    timed(0);
  } else {
    const std::string setup_text = chain_text(1000);
    report.metric("setup_s", "s",
                  run_schedule(kOps, kSetupOps, timed, [&] {
                    return clock.time([&] { op(setup_text); });
                  }));
    report_host(clock, report);
  }

  const std::string hash = fnv1a_hex(ops.front().doc);
  report.hash("chain", hash);
  for (const OpResult& o : ops) {
    report.tally(fnv1a_hex(o.doc) == hash,
                 "chain: document differs across repeats");
  }
  const JsonValue doc = JsonValue::parse(ops.front().doc);
  const std::vector<JsonValue>& rows =
      doc.at("ensemble").at("replica_rows").items();
  report.tally(rows.size() == kReplicas, "chain: replica row count");
  for (const JsonValue& row : rows) {
    report.tally(row.at("status").as_string() == "ok",
                 "chain: replica " +
                     std::to_string(row.at("replica").as_number()) + " " +
                     row.at("status").as_string());
  }
  report.tally(doc.at("integrity").at("issues").items().empty() &&
                   !doc.at("degraded").as_bool(),
               "chain: integrity issues or degraded units");
  DocCounts counts;
  counts.add(doc, ops.front().doc.size());
  counts.report_counts(report);

  if (!opt.trace) {
    report.metric("wall_s", "s", walls);
    report.metric("events_per_s", "1/s", rates);
    report.metric("peak_rss_mb", "MiB",
                  peak_rss_mb() - HostClock::kTableMiB);
    return;
  }

  const OpResult& o = ops.front();
  report.metric("netlist.input_s", "s", o.input_s);
  report.metric("analysis.run_s", "s", o.run_s);
  report.metric("io.to_json_s", "s", o.json_s);
  counts.report_ratios(report);

  // The probe runs one unperturbed replica on the solo engine.
  Tracer::set_trace("ensemble_chain/probe");
  const SimulationInput in = parse_simulation_input(text);
  report.metric("netlist.model_build_s", "s",
                time_model_build(tracer, in.circuit));
  const double ns = probe_ns_per_event(
      tracer, "chain", in.circuit, engine_options_for(in, req.driver_options()));
  report.metric("core.ns_per_event", "ns", ns);
  report.metric("analysis.core_utilization", "ratio",
                ns * 1e-9 * counts.events / (kThreads * o.run_s));
}

}  // namespace semsim::bench
