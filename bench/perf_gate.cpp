// perf_gate — the hot-path performance gate.
//
// Times the Monte-Carlo event loop on the Fig. 4/6 chain circuits (the
// workload the structure-of-arrays channel refactor targets) and emits a
// machine-readable baseline document, BENCH_hotpath.json:
//
//   ./perf_gate --out=BENCH_hotpath.json            # record a baseline
//   ./perf_gate --baseline=BENCH_hotpath.json       # gate against it
//
// Per case it reports steady-state events/sec (best of several timed
// windows, which damps scheduler jitter), ns per rate evaluation, and the
// flagged fraction (junctions flagged / junctions tested) of the adaptive
// solver. One end-to-end case runs a small IV sweep through the
// RunRequest -> run() -> RunResult facade and reads its numbers back out
// of the versioned JSON document (io/json.h) — the same artifact CI
// tooling consumes — instead of scraping the TSV output.
//
// With --baseline=FILE the gate fails (exit 1) when any case's events/sec
// drops below (1 - tolerance) x the baseline value. The default tolerance
// of 25% (--tolerance=0.25) absorbs run-to-run and machine-to-machine
// jitter; real hot-path regressions from the SoA layout show up far above
// that (the refactor itself moved the 1024-stage chain by >30%).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/api.h"
#include "base/error.h"
#include "bench_util.h"
#include "core/engine.h"
#include "gate_case.h"
#include "io/json.h"
#include "iscas_scale.h"
#include "logic/devices.h"
#include "netlist/parser.h"

namespace semsim {
namespace {

// GateCase and the schema tag (with its version history) live in
// gate_case.h, shared with the ISCAS-scale cases in iscas_scale.cpp.
using bench::GateCase;
constexpr const char* kSchema = bench::kGateSchema;

/// Inter-island coupling for the ADAPTIVE chain cases (make_set_chain):
/// strong enough that every event gets the neighbours' junctions tested,
/// weak enough that the test usually clears — flagged_fraction lands
/// strictly inside (0, 1); on the uncoupled chain an event perturbs only
/// its own stage and the fraction is exactly 1. 0.5 aF against the 20 aF
/// ground caps keeps the accumulated testing factor about half an order of
/// magnitude below the flag threshold at the default alpha. Non-adaptive
/// cases keep the uncoupled circuit so events/sec comparisons against
/// pre-coupling baselines stay apples-to-apples.
constexpr double kAdaptiveCouplingF = 0.5e-18;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Steady-state stepping rate of one engine configuration: warm up past the
/// transient, calibrate a ~100 ms window, then keep the best of three
/// windows (the one least disturbed by the scheduler).
GateCase measure_engine_case(int stages, bool adaptive,
                             double temperature = 0.0) {
  GateCase r;
  r.name = (adaptive ? "chain_adaptive_" : "chain_nonadaptive_") +
           std::to_string(stages);
  // The warm cases keep the names their recorded baselines carry.
  if (temperature > 0.0) r.name += "_warm_exact";
  r.stages = stages;
  r.adaptive = adaptive;

  const Circuit c =
      make_set_chain(stages, adaptive ? kAdaptiveCouplingF : 0.0);
  EngineOptions o;
  o.temperature = temperature;
  o.adaptive.enabled = adaptive;
  Engine e(c, o);

  for (int i = 0; i < 2000; ++i) require(e.step(), "perf_gate: engine stuck");

  const auto cal0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) require(e.step(), "perf_gate: engine stuck");
  const double per_event = seconds_since(cal0) / 1000.0;
  std::uint64_t window =
      static_cast<std::uint64_t>(0.1 / per_event);
  if (window < 1000) window = 1000;
  if (window > 20000000) window = 20000000;

  for (int rep = 0; rep < 3; ++rep) {
    const SolverStats before = e.stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < window; ++i) {
      require(e.step(), "perf_gate: engine stuck");
    }
    const double dt = seconds_since(t0);
    const double evps = static_cast<double>(window) / dt;
    if (evps > r.events_per_sec) {
      r.events_per_sec = evps;
      const std::uint64_t evals =
          e.stats().all_rate_evaluations() - before.all_rate_evaluations();
      r.ns_per_rate_eval =
          evals > 0 ? dt * 1e9 / static_cast<double>(evals) : 0.0;
    }
  }
  const SolverStats s = e.stats();
  if (s.junctions_tested > 0) {
    r.flagged_fraction = static_cast<double>(s.junctions_flagged) /
                         static_cast<double>(s.junctions_tested);
  }
  return r;
}

/// The paper's Example Input File 1 (double junction SET) with a short
/// sweep budget: enough events to time the whole facade path without
/// dominating the gate's runtime.
constexpr const char* kSetSweepInput = R"(
junc 1 1 4 1meg 1e-18
junc 2 4 2 1meg 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
num j 2
num ext 3
num nodes 4
temp 5
record 1 2
jumps 20000 1
sweep 2 0.02 0.004
)";

/// End-to-end case: the facade runs a parallel IV sweep and the gate reads
/// events and wall seconds back out of the versioned RunResult JSON.
GateCase measure_facade_case() {
  GateCase r;
  r.name = "facade_set_sweep";
  r.adaptive = true;

  RunRequest req;
  req.input = parse_simulation_input(std::string(kSetSweepInput));
  req.seed = 1;
  const RunResult res = run(req);

  const JsonValue doc = JsonValue::parse(res.to_json());
  require(doc.at("schema").as_string() == RunResult::kJsonSchema,
          "perf_gate: unexpected RunResult schema");
  const JsonValue& counters = doc.at("counters");
  const double events = counters.at("events").as_number();
  const double wall = counters.at("wall_seconds").as_number();
  const double evals = counters.at("rate_evaluations").as_number();
  r.events_per_sec = wall > 0.0 ? events / wall : 0.0;
  r.ns_per_rate_eval = evals > 0.0 ? wall * 1e9 / evals : 0.0;
  const double tested = doc.at("stats").at("junctions_tested").as_number();
  const double flagged = doc.at("stats").at("junctions_flagged").as_number();
  if (tested > 0.0) r.flagged_fraction = flagged / tested;
  return r;
}

std::string cases_to_json(const std::vector<GateCase>& cases,
                          double tolerance) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", kSchema);
  w.field("tolerance", tolerance);
  w.key("cases").begin_array();
  for (const GateCase& c : cases) {
    w.begin_object();
    w.field("name", c.name);
    w.field("stages", c.stages);
    w.field("adaptive", c.adaptive);
    w.field("partitions", c.partitions);
    w.field("events_per_sec", c.events_per_sec);
    w.field("ns_per_rate_eval", c.ns_per_rate_eval);
    if (c.flagged_fraction >= 0.0) {
      w.field("flagged_fraction", c.flagged_fraction);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

/// Compares against a recorded baseline; returns the number of regressed
/// cases. A baseline case with no current counterpart is a failure too —
/// silently dropping a case would hollow out the gate.
int gate_against(const std::vector<GateCase>& cases,
                 const std::string& baseline_path, double tolerance) {
  std::ifstream f(baseline_path, std::ios::binary);
  require(static_cast<bool>(f), "perf_gate: cannot read " + baseline_path);
  std::ostringstream ss;
  ss << f.rdbuf();
  const JsonValue doc = JsonValue::parse(ss.str());
  require(doc.at("schema").as_string() == kSchema,
          "perf_gate: baseline schema mismatch");

  int regressions = 0;
  for (const JsonValue& b : doc.at("cases").items()) {
    const std::string& name = b.at("name").as_string();
    const double base = b.at("events_per_sec").as_number();
    const GateCase* cur = nullptr;
    for (const GateCase& c : cases) {
      if (c.name == name) cur = &c;
    }
    if (cur == nullptr) {
      std::printf("FAIL %-28s missing from this run\n", name.c_str());
      ++regressions;
      continue;
    }
    const double floor = (1.0 - tolerance) * base;
    const bool ok = cur->events_per_sec >= floor;
    std::printf("%s %-32s %12.0f ev/s vs baseline %12.0f (floor %12.0f)\n",
                ok ? "ok  " : "FAIL", name.c_str(), cur->events_per_sec, base,
                floor);
    if (!ok) ++regressions;

    // Adaptive cases also gate the per-rate-evaluation cost: a slower rate
    // kernel can hide behind a stable events/sec when the flagged count
    // drops, and vice versa. Non-adaptive cases skip this (their eval count
    // is fixed at channels/event, so events/sec already covers it).
    const JsonValue* adaptive_field = b.find("adaptive");
    const JsonValue* ns_field = b.find("ns_per_rate_eval");
    const bool base_adaptive =
        adaptive_field != nullptr && adaptive_field->as_bool();
    const double base_ns = ns_field != nullptr ? ns_field->as_number() : 0.0;
    if (base_adaptive && base_ns > 0.0 && cur->ns_per_rate_eval > 0.0) {
      const double ceiling = (1.0 + tolerance) * base_ns;
      const bool ns_ok = cur->ns_per_rate_eval <= ceiling;
      std::printf("%s %-32s %10.1f ns/rate-eval vs baseline %8.1f (ceiling "
                  "%8.1f)\n",
                  ns_ok ? "ok  " : "FAIL", name.c_str(),
                  cur->ns_per_rate_eval, base_ns, ceiling);
      if (!ns_ok) ++regressions;
    }
  }
  return regressions;
}

}  // namespace
}  // namespace semsim

int main(int argc, char** argv) {
  using namespace semsim;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  std::string out_path;
  std::string baseline_path;
  double tolerance = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--out=", 0) == 0) {
      out_path = s.substr(6);
    } else if (s.rfind("--baseline=", 0) == 0) {
      baseline_path = s.substr(11);
    } else if (s.rfind("--tolerance=", 0) == 0) {
      char* end = nullptr;
      tolerance = std::strtod(s.c_str() + 12, &end);
      if (end == s.c_str() + 12 || *end != '\0' || !(tolerance > 0.0) ||
          tolerance >= 1.0) {
        std::fprintf(stderr, "--tolerance= must be in (0, 1)\n");
        return 2;
      }
    } else if (s == "--help" || s == "-h") {
      std::printf("usage: %s [--out=FILE.json] [--baseline=FILE.json]\n"
                  "          [--tolerance=0.25]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
      return 2;
    }
  }

  try {
    std::vector<GateCase> cases;
    auto report = [](const GateCase& c) {
      std::printf("# %-32s %12.0f ev/s  %8.1f ns/rate-eval", c.name.c_str(),
                  c.events_per_sec, c.ns_per_rate_eval);
      if (c.flagged_fraction >= 0.0) {
        std::printf("  flagged %.3f", c.flagged_fraction);
      }
      std::printf("\n");
    };
    for (const int stages : {8, 64, 256, 1024}) {
      for (const bool adaptive : {true, false}) {
        cases.push_back(measure_engine_case(stages, adaptive));
        report(cases.back());
      }
    }
    // Warm adaptive cases (4.2 K): the thermal kernel and its memo on the
    // flagged-subset path (the cold cases evaluate T = 0 rates only).
    for (const int stages : {64, 1024}) {
      cases.push_back(measure_engine_case(stages, /*adaptive=*/true,
                                          /*temperature=*/4.2));
      report(cases.back());
    }
    // ISCAS-scale domain-decomposition cases (iscas_scale.cpp). The 4k
    // pairs carry their own in-run require()s: partitioned >= 3x solo
    // non-adaptive, and >= 0.9x solo adaptive on one thread.
    bench::append_iscas_cases(cases);

    cases.push_back(measure_facade_case());
    std::printf("# %-28s %12.0f ev/s  %8.1f ns/rate-eval\n",
                cases.back().name.c_str(), cases.back().events_per_sec,
                cases.back().ns_per_rate_eval);

    // The adaptive chain cases exist to time the flagged-subset path; if
    // every tested junction also flags, they silently degrade into full
    // refreshes per event and the gate stops covering the partial-flagging
    // code at all. Guard that the coupled circuits really do produce it.
    bool partial_flagging = false;
    for (const GateCase& c : cases) {
      if (c.stages > 0 && c.adaptive && c.flagged_fraction >= 0.0 &&
          c.flagged_fraction < 1.0) {
        partial_flagging = true;
      }
    }
    require(partial_flagging,
            "perf_gate: no adaptive chain case reported flagged_fraction < 1; "
            "the flagged-subset path is not being exercised");

    if (!out_path.empty()) {
      std::ofstream f(out_path, std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "perf_gate: cannot write %s\n", out_path.c_str());
        return 1;
      }
      f << cases_to_json(cases, tolerance) << '\n';
      std::printf("# wrote %s baseline to %s\n", kSchema, out_path.c_str());
    }
    if (!baseline_path.empty()) {
      const int regressions = gate_against(cases, baseline_path, tolerance);
      if (regressions > 0) {
        std::printf("# %d case(s) regressed by more than %.0f%%\n",
                    regressions, tolerance * 100.0);
        return 1;
      }
      std::printf("# all cases within %.0f%% of baseline\n", tolerance * 100.0);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 1;
  }
  return 0;
}
