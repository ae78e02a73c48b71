// logic_fabric: an ISCAS-scale random-logic fabric (the Fig. 6 scale) run
// partitioned through run(). Set-up — the O(n^3) electrostatic model build
// — and the partition layer (plan, windows, barriers, milestone snapshots)
// dominate here and do little elsewhere.
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "logic/elaborate.h"
#include "logic/random_logic.h"

namespace semsim::bench {
namespace {

constexpr std::size_t kBlocks = 4;
constexpr std::size_t kBlockJunctions = 384;
/// Wire coupler between adjacent blocks' chain outputs [F]: far below the
/// 300 aF wire loads, so the planner cuts the fabric into the blocks.
constexpr double kCouplerF = 0.5e-18;
constexpr double kPulsePeriod = 20e-9;  ///< chain-input pulse period [s]
/// Events of one operation.
constexpr std::uint64_t kJumps = 200000;
/// Operations of an untraced run, ~1.5 s apiece, and set-up operations
/// (1000 events, ~0.7 s) among them.
constexpr int kOps = 6;
constexpr int kSetupOps = 3;

/// Elaborates the generated netlist into the run's input: inter-block
/// couplers, and a phase-staggered pulse on every block's chain input so
/// all clusters carry comparable switching activity.
SimulationInput fabric_input(const RandomLogicBlocks& blocks,
                             std::uint64_t jumps) {
  const SetLogicParams params{};
  ElaboratedCircuit elab = elaborate(blocks.netlist, params);
  Circuit& c = elab.circuit();
  for (std::size_t b = 0; b + 1 < kBlocks; ++b) {
    c.add_capacitor(elab.node(blocks.chain_out[b]),
                    elab.node(blocks.chain_out[b + 1]), kCouplerF);
  }
  const auto& ins = blocks.netlist.inputs();
  const std::size_t per_block = ins.size() / kBlocks;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const NodeId node = elab.node(ins[i]);
    if (i % per_block == 0) {
      const double delay = kPulsePeriod * static_cast<double>(i / per_block) /
                           static_cast<double>(kBlocks);
      c.set_source(node, Waveform::pulse(0.0, params.vdd, delay,
                                         0.5 * kPulsePeriod, kPulsePeriod));
    } else {
      c.set_source(node, Waveform::dc(0.0));
    }
  }
  SimulationInput in;
  in.circuit = c;
  in.temperature = params.temperature;
  in.record_junctions = {0};
  in.max_jumps = jumps;
  return in;
}

double current_of(const JsonValue& doc, const char* field) {
  return doc.at("current").at(field).as_number();
}

}  // namespace

void run_logic_fabric(const Options& opt, Tracer& tracer, Report& report) {
  const std::string dir = opt.out_dir + "/logic_fabric";
  std::filesystem::create_directories(dir);
  RandomLogicSpec spec;
  spec.target_junctions = kBlockJunctions;
  spec.seed = input_seed(opt.seed, 3, 0);
  const RandomLogicBlocks blocks = make_random_logic_blocks(spec, kBlocks);

  RunRequest req;
  req.seed = input_seed(opt.seed, 3, 1);
  req.threads = kThreads;
  req.partition.enabled = true;
  req.partition.clusters = kBlocks;

  const auto op = [&](const RunRequest& r, std::uint64_t jumps,
                      const std::string& name) {
    return run_to_document(
        tracer, name,
        [&tracer, &blocks, jumps] {
          Tracer::Scope s = tracer.span("logic.elaborate");
          return fabric_input(blocks, jumps);
        },
        r, dir + "/" + name + ".json");
  };

  std::vector<OpResult> ops;
  std::vector<double> walls, rates;
  HostClock clock(kMemoryBound);
  const auto timed = [&](int k) {
    Tracer::set_trace("logic_fabric/" + std::to_string(k));
    const double wall =
        clock.time([&] { ops.push_back(op(req, kJumps, "fabric")); });
    const double events =
        JsonValue::parse(ops.back().doc).at("events").as_number();
    walls.push_back(wall);
    rates.push_back(events / wall);
  };
  if (opt.trace) {
    timed(0);
  } else {
    report.metric("setup_s", "s",
                  run_schedule(kOps, kSetupOps, timed, [&] {
                    return clock.time([&] { op(req, 1000, "setup"); });
                  }));
    report_host(clock, report);
  }

  const std::string hash = fnv1a_hex(ops.front().doc);
  report.hash("fabric", hash);
  for (const OpResult& o : ops) {
    report.tally(fnv1a_hex(o.doc) == hash,
                 "fabric: document differs across repeats");
  }
  const JsonValue doc = JsonValue::parse(ops.front().doc);
  report.tally(doc.at("counters").at("units").as_number() == kBlocks,
               "fabric: partition did not split into the blocks");
  report.tally(doc.at("integrity").at("issues").items().empty() &&
                   !doc.at("degraded").as_bool(),
               "fabric: integrity issues or degraded units");
  report.tally(std::isfinite(current_of(doc, "mean_A")),
               "fabric: current is not finite");
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
  report.metric("core.partition_clusters", "count",
                doc.at("counters").at("units").as_number());

  // The same request on the solo engine: what partitioning buys, and the
  // cross-cut error of the partitioned current in combined sigmas.
  Tracer::set_trace("logic_fabric/solo");
  RunRequest solo = req;
  solo.partition = PartitionSpec{};
  const OpResult s = op(solo, kJumps, "fabric_solo");
  const JsonValue solo_doc = JsonValue::parse(s.doc);
  report.metric("core.partition_speedup", "ratio", s.run_s / o.run_s);
  const double sigma = std::hypot(current_of(doc, "stderr_A"),
                                  current_of(solo_doc, "stderr_A"));
  report.metric("core.partition_dev_sigma", "ratio",
                std::abs(current_of(doc, "mean_A") -
                         current_of(solo_doc, "mean_A")) /
                    sigma);

  Tracer::set_trace("logic_fabric/probe");
  const SimulationInput in = fabric_input(blocks, kJumps);
  report.metric("netlist.model_build_s", "s",
                time_model_build(tracer, in.circuit));
  const double ns = probe_ns_per_event(
      tracer, "fabric", in.circuit, engine_options_for(in, req.driver_options()));
  report.metric("core.ns_per_event", "ns", ns);
  report.metric("analysis.core_utilization", "ratio",
                ns * 1e-9 * counts.events / (kThreads * o.run_s));
}

}  // namespace semsim::bench
