// ISCAS-scale cases for the perf gate: solo engine vs PartitionedEngine on
// the same multi-block logic fabric.
//
// The workload is the cuttable stand-in for the paper's large ISCAS'85
// netlists: N disjoint 512-junction random-logic blocks elaborated into
// one SET circuit (make_random_logic_blocks, make_logic_fabric), then tied
// into a single weakly-coupled fabric by 0.5 aF wire couplers between the
// chain outputs of adjacent blocks — exactly the coupling regime the
// partition planner is built to cut (two orders of magnitude below the
// 300 aF wire self-capacitance). Every block's chain input is driven by a
// phase-staggered pulse train so all clusters carry comparable switching
// activity; a single toggled block would hand the partitioned run a
// degenerate one-hot load profile and the comparison would measure the
// barrier, not the decomposition.
//
// The 1k and 4k pairs run the NON-adaptive solver: that is the regime
// where solo cost is O(total junctions) per event and the decomposition's
// O(cluster junctions) is the whole point (partition.h header). The
// speedup is algorithmic, not thread-parallel — it holds at any executor
// width. The adaptive 4k pair runs on one thread: the adaptive solver
// already confines an event's work to the junctions near it, so the
// decomposition saves little per event, and the pair gates what the
// partition layer itself costs, chiefly its window barriers.
#include "iscas_scale.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "base/error.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "core/partition.h"
#include "logic/devices.h"
#include "logic/params.h"
#include "netlist/electrostatics.h"

namespace semsim::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The make_logic_fabric fabric of `n_blocks` 512-junction blocks (seed
/// 7) and its shared electrostatic model.
struct IscasFabric {
  Circuit circuit;
  std::shared_ptr<const ElectrostaticModel> model;
};

IscasFabric make_fabric(std::size_t n_blocks) {
  IscasFabric f{make_logic_fabric(n_blocks, 512, 7), nullptr};
  f.model = std::make_shared<const ElectrostaticModel>(f.circuit);
  return f;
}

EngineOptions iscas_engine_options(bool adaptive) {
  EngineOptions o;
  o.temperature = SetLogicParams{}.temperature;
  o.adaptive.enabled = adaptive;
  o.seed = 1;
  return o;
}

/// Best-of-3 steady-state timing shared by both sides. `step` executes one
/// chunk of work and returns the events it ran; `stats` reads the
/// cumulative work counters. Both engines warm up past the cold-start
/// glitch-settling transient (neither side gets the testbench pre-seed:
/// PartitionedEngine owns its cluster states, so warmup is the level
/// playing field) before the timed windows.
void measure_best_of_3(GateCase& r, const char* who,
                       const std::function<std::uint64_t()>& step,
                       const std::function<SolverStats()>& stats) {
  std::uint64_t warmed = 0;
  while (warmed < 4000) {
    const std::uint64_t n = step();
    if (n == 0) {
      throw Error(std::string("iscas_scale: ") + who + " stuck in warmup");
    }
    warmed += n;
  }
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t evals_before = stats().all_rate_evaluations();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    double dt = 0.0;
    do {
      const std::uint64_t n = step();
      if (n == 0) {
        throw Error(std::string("iscas_scale: ") + who + " stuck in window");
      }
      events += n;
      dt = seconds_since(t0);
    } while (dt < 0.1);
    const double evps = static_cast<double>(events) / dt;
    if (evps > r.events_per_sec) {
      r.events_per_sec = evps;
      const std::uint64_t evals = stats().all_rate_evaluations() - evals_before;
      r.ns_per_rate_eval =
          evals > 0 ? dt * 1e9 / static_cast<double>(evals) : 0.0;
    }
  }
}

std::string case_name(const IscasFabric& f, bool adaptive) {
  return "iscas_blocks_" + std::to_string(f.circuit.junction_count()) +
         (adaptive ? "_adaptive" : "");
}

GateCase measure_solo(const IscasFabric& f, bool adaptive) {
  GateCase r;
  r.name = case_name(f, adaptive);
  r.adaptive = adaptive;
  Engine e(f.circuit, iscas_engine_options(adaptive), f.model);
  measure_best_of_3(
      r, "solo engine", [&] { return e.run_events(256); },
      [&] { return e.stats(); });
  return r;
}

GateCase measure_partitioned(const IscasFabric& f, bool adaptive,
                             std::uint32_t clusters,
                             const ParallelExecutor& exec) {
  GateCase r;
  r.name = case_name(f, adaptive) + "_part" + std::to_string(clusters);
  r.adaptive = adaptive;
  r.partitions = static_cast<int>(clusters);

  PartitionSpec spec;
  spec.enabled = true;
  spec.clusters = clusters;
  PartitionedEngine part(f.circuit, *f.model,
                         iscas_engine_options(adaptive), spec, &exec);
  // The fabric must actually decompose; a plan that glued the blocks
  // together would silently benchmark solo-vs-solo.
  require(part.clusters() == clusters,
          "iscas_scale: planner did not split the fabric into the requested "
          "clusters");
  measure_best_of_3(
      r, "partitioned engine", [&] { return part.advance_window(256); },
      [&] { return part.merged_stats(); });
  return r;
}

void report(const GateCase& c) {
  std::printf("# %-32s %12.0f ev/s  %8.1f ns/rate-eval  partitions %d\n",
              c.name.c_str(), c.events_per_sec, c.ns_per_rate_eval,
              c.partitions);
}

/// Prints the partitioned/solo events/sec ratio of a pair and requires at
/// least `min_ratio`, so even a --out (baseline) run fails loudly rather
/// than record a baseline that blesses a regressed decomposition.
void require_speedup(const char* what, const GateCase& solo,
                     const GateCase& part, double min_ratio) {
  const double ratio = solo.events_per_sec > 0.0
                           ? part.events_per_sec / solo.events_per_sec
                           : 0.0;
  std::printf("# %-32s %12.0f ev/s partitioned vs %12.0f solo (%.2fx)\n",
              what, part.events_per_sec, solo.events_per_sec, ratio);
  require(ratio >= min_ratio,
          std::string("iscas_scale: ") + what + " is below " +
              std::to_string(min_ratio) + "x the solo events/sec");
}

}  // namespace

void append_iscas_cases(std::vector<GateCase>& cases) {
  const ParallelExecutor exec(8);
  const auto pair = [&](const IscasFabric& f, bool adaptive,
                        std::uint32_t clusters, const ParallelExecutor& ex) {
    const GateCase solo = measure_solo(f, adaptive);
    cases.push_back(solo);
    report(solo);
    const GateCase part = measure_partitioned(f, adaptive, clusters, ex);
    cases.push_back(part);
    report(part);
    return std::make_pair(solo, part);
  };

  pair(make_fabric(2), /*adaptive=*/false, 2, exec);

  const IscasFabric f = make_fabric(8);
  // The decomposition's acceptance: at ~4k junctions the 8 clusters must
  // beat the solo engine by at least 3x events/sec. The win is per-event
  // work (O(cluster) vs O(total) rate re-evaluation), so it must hold even
  // on a single hardware thread.
  const auto [solo, part] = pair(f, /*adaptive=*/false, 8, exec);
  require_speedup("iscas_4096_speedup", solo, part, 3.0);

  // The adaptive pair on one thread: the partitioned run must not lose
  // more than 10 % to its window barriers (measured ratios in
  // EXPERIMENTS.md, "Partition barrier").
  const ParallelExecutor exec1(1);
  const auto [asolo, apart] = pair(f, /*adaptive=*/true, 8, exec1);
  require_speedup("iscas_4096_adaptive_ratio", asolo, apart, 0.9);
}

}  // namespace semsim::bench
