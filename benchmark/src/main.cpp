// semsim_bench — end-to-end benchmark of SEMSIM, one workload per process.
//
//   semsim_bench --workload W [--seed N] [--trace 0|1]
//                [--serve-bin PATH] [--out DIR]
//
// Prints one `metric workload value unit (n, min, q1, q3, max)` line per
// metric, writes the full record (every sample, count, document hash and
// failed check) to DIR/<workload>[.trace].json, and ends with one JSON
// line {"correct", "attempted", "failed", "metrics"} over the end-to-end
// metrics (untraced) or the per-layer metrics (--trace 1). Exits 1 when a
// correctness check failed. benchmark/run.py builds and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

namespace semsim::bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"events_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"netlist.input_s", "s"},
    {"netlist.model_build_s", "s"},
    {"analysis.run_s", "s"},
    {"io.to_json_s", "s"},
    {"core.ns_per_event", "ns"},
    {"analysis.core_utilization", "ratio"},
    {"analysis.thread_speedup", "ratio"},
    {"core.rate_evals_per_event", "count"},
    {"core.flagged_fraction", "ratio"},
    {"core.potential_updates_per_event", "count"},
    {"core.full_refreshes_per_event", "count"},
    {"core.source_updates_per_mevent", "count"},
    {"core.partition_speedup", "ratio"},
    {"core.partition_dev_sigma", "ratio"},
    {"physics.cp_evals_per_event", "count"},
    {"physics.cot_evals_per_event", "count"},
    {"guard.audits_per_mevent", "count"},
    {"obs.checkpoint_bytes", "B"},
    {"obs.checkpoint_overhead_frac", "ratio"},
    {"io.doc_bytes", "B"},
    {"serve.submit_frac", "ratio"},
    {"serve.status_frac", "ratio"},
    {"serve.result_frac", "ratio"},
    {"serve.poll_sleep_frac", "ratio"},
    {"serve.polls_per_job", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.journal_bytes_per_job", "B"},
    {"serve.connections", "count"},
    {"serve.rss_kb_per_connection", "KiB"},
};

bool is_time_unit(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "ns";
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "semsim_bench: %s\n"
               "usage: semsim_bench --workload "
               "device_iv|ensemble_chain|logic_fabric|served_mix\n"
               "         [--seed N] [--trace 0|1]\n"
               "         [--serve-bin PATH] [--out DIR]\n",
               msg.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--serve-bin") {
      opt.serve_bin = v;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      usage_error("unknown argument " + a);
    }
    if (end != nullptr && *end != '\0') usage_error("bad number for " + a);
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  return opt;
}

/// Cost of one recorded span, measured on a throwaway tracer.
double span_cost_ns() {
  Tracer probe(true);
  constexpr int kSpans = 20000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) probe.span("x").end();
  return static_cast<double>(now_ns() - t0) / kSpans;
}

}  // namespace
}  // namespace semsim::bench

int main(int argc, char** argv) {
  using namespace semsim::bench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Options opt = parse_args(argc, argv);

  void (*workload)(const Options&, Tracer&, Report&) = nullptr;
  if (opt.workload == "device_iv") workload = run_device_iv;
  if (opt.workload == "ensemble_chain") workload = run_ensemble_chain;
  if (opt.workload == "logic_fabric") workload = run_logic_fabric;
  if (opt.workload == "served_mix") workload = run_served_mix;
  if (workload == nullptr) usage_error("unknown workload " + opt.workload);

  Tracer tracer(opt.trace);
  Report report;
  const std::int64_t t0 = now_ns();
  try {
    std::filesystem::create_directories(opt.out_dir);
    Tracer::set_trace(opt.workload);
    workload(opt, tracer, report);
  } catch (const std::exception& e) {
    report.tally(false, std::string("workload aborted: ") + e.what());
  }
  const double elapsed = seconds_since(t0);

  std::vector<std::string> names;
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) {
      names.emplace_back(m.name);
      if (report.has(m.name)) continue;
      // A layer the workload bypasses reads 0; a time must be measured.
      report.tally(!is_time_unit(m.unit),
                   std::string("per-layer time ") + m.name + " not measured");
      report.metric(m.name, m.unit, 0.0);
    }
    std::printf("# self time per span (s), %zu spans:\n", tracer.size());
    for (const auto& [name, s] : tracer.self_seconds()) {
      std::printf("#   %-28s %10.4f\n", name.c_str(), s);
    }
    const double overhead = span_cost_ns() * 1e-9 *
                            static_cast<double>(tracer.size());
    std::printf("# tracing overhead: %.6f s of %.3f s\n", overhead, elapsed);
    report.note("trace_overhead_s", std::to_string(overhead));
    tracer.write_jsonl(opt.out_dir + "/trace_" + opt.workload + ".jsonl");
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      names.emplace_back(m.name);
      report.tally(report.has(m.name),
                   std::string("end-to-end metric ") + m.name + " missing");
    }
  }
  report.note("elapsed_s", std::to_string(elapsed));
  report.print_lines(opt.workload);
  write_file(opt.out_dir + "/" + opt.workload + (opt.trace ? ".trace" : "") +
                 ".json",
             report.to_json(opt));
  std::printf("%s\n", report.result_line(names).c_str());
  return report.failed() == 0 ? 0 : 1;
}
