// Deterministic parallel execution layer (base/thread_pool.h) and the
// bitwise-reproducibility contract of the parallel analysis drivers:
// the same configuration must produce the SAME bytes for every thread
// count, because work units are seeded from (base_seed, unit_index),
// never from thread identity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/driver.h"
#include "analysis/sweep.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "logic/devices.h"

namespace semsim {
namespace {

// ---- thread pool primitives -----------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(&pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, InlineFallbacksCoverEveryIndex) {
  // Null pool and single-thread pools execute inline on the caller.
  std::vector<int> hits(64, 0);
  parallel_for(nullptr, hits.size(), [&](std::size_t i) { ++hits[i]; });
  ThreadPool one(1);
  parallel_for(&one, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 2);
  parallel_for(&one, 0, [&](std::size_t) { FAIL() << "n = 0 ran a unit"; });
}

TEST(ThreadPool, BackpressureBoundsTheQueue) {
  // A tiny queue forces submit() to block rather than grow unboundedly;
  // all tasks must still run to completion.
  ThreadPool pool(2, 2);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, UnitsRunConcurrentlyNotSerialized) {
  // Guards against an accidental submit-and-wait serialization: four tasks
  // rendezvous inside the pool, which is only possible if all four are in
  // flight at once. A scheduling check, not a timing one, so it holds even
  // on a single-core CI machine (blocked tasks do not need a core each).
  constexpr int kTasks = 4;
  ThreadPool pool(kTasks);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool timed_out = false;
  parallel_for(&pool, kTasks, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return arrived == kTasks; })) {
      timed_out = true;
    }
  });
  EXPECT_EQ(arrived, kTasks);
  EXPECT_FALSE(timed_out) << "tasks never overlapped: pool is serialized";
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // Every unit still runs; the rethrown exception is the lowest-index one,
  // independent of which worker saw its failure first.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    parallel_for(&pool, 64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7 || i == 3 || i == 50) {
        throw std::runtime_error("unit " + std::to_string(i));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unit 3");
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(8);
  const std::vector<std::size_t> out = parallel_map<std::size_t>(
      &pool, 257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutor, ZeroMeansHardwareConcurrency) {
  const ParallelExecutor exec(0);
  EXPECT_GE(exec.threads(), 1u);
  const ParallelExecutor one(1);
  EXPECT_EQ(one.threads(), 1u);
}

// ---- stream-seed derivation ----------------------------------------------

TEST(StreamSeeds, DistinctAcrossUnitsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t u = 0; u < 2000; ++u) {
    seen.insert(derive_stream_seed(1, u));
    seen.insert(derive_stream_seed(2, u));
  }
  // No collisions between units of the same run or of sibling runs.
  EXPECT_EQ(seen.size(), 4000u);
  // Unit 0 is not the base seed itself (stream != seed sequence).
  EXPECT_NE(derive_stream_seed(1, 0), 1u);
}

TEST(StreamSeeds, PureFunctionOfSeedAndIndex) {
  EXPECT_EQ(derive_stream_seed(42, 17), derive_stream_seed(42, 17));
  EXPECT_NE(derive_stream_seed(42, 17), derive_stream_seed(42, 18));
  EXPECT_NE(derive_stream_seed(42, 17), derive_stream_seed(43, 17));
}

// ---- bitwise determinism of the analysis drivers -------------------------

constexpr char kSetSweepInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 3 0.0
symm 2
temp 5
record 1 2
jumps 2000
sweep 1 0.01 0.002
)";

std::vector<IvPoint> sweep_at(unsigned threads) {
  const SimulationInput input = parse_simulation_input(kSetSweepInput);
  DriverOptions opt;
  opt.seed = 7;
  opt.threads = threads;
  const DriverResult r = run_simulation(input, opt);
  return r.sweep;
}

TEST(Determinism, IvSweepBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<IvPoint> t1 = sweep_at(1);
  const std::vector<IvPoint> t2 = sweep_at(2);
  const std::vector<IvPoint> t8 = sweep_at(8);
  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    // Bitwise: exact double equality, no tolerance.
    EXPECT_EQ(t1[i].bias, t2[i].bias);
    EXPECT_EQ(t1[i].current, t2[i].current) << "point " << i;
    EXPECT_EQ(t1[i].stderr_mean, t2[i].stderr_mean) << "point " << i;
    EXPECT_EQ(t1[i].current, t8[i].current) << "point " << i;
    EXPECT_EQ(t1[i].stderr_mean, t8[i].stderr_mean) << "point " << i;
  }
}

TEST(Determinism, SweepCountersThreadCountIndependent) {
  const SimulationInput input = parse_simulation_input(kSetSweepInput);
  DriverOptions o1, o8;
  o1.seed = o8.seed = 3;
  o1.threads = 1;
  o8.threads = 8;
  const DriverResult r1 = run_simulation(input, o1);
  const DriverResult r8 = run_simulation(input, o8);
  EXPECT_EQ(r1.counters.units, r8.counters.units);
  EXPECT_EQ(r1.counters.stats.events, r8.counters.stats.events);
  EXPECT_EQ(r1.counters.stats.rate_evaluations,
            r8.counters.stats.rate_evaluations);
  EXPECT_EQ(r1.counters.stats.junctions_flagged,
            r8.counters.stats.junctions_flagged);
  EXPECT_EQ(r1.counters.stats.full_refreshes,
            r8.counters.stats.full_refreshes);
  EXPECT_EQ(r1.counters.threads, 1u);
  EXPECT_EQ(r8.counters.threads, 8u);
}

constexpr char kRepeatsInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
record 1 2
jumps 1500 6
)";

TEST(Determinism, MultiSeedRepeatsBitwiseIdenticalAcrossThreadCounts) {
  const SimulationInput input = parse_simulation_input(kRepeatsInput);
  std::vector<DriverResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    DriverOptions opt;
    opt.seed = 5;
    opt.threads = threads;
    results.push_back(run_simulation(input, opt));
  }
  for (std::size_t k = 1; k < results.size(); ++k) {
    ASSERT_TRUE(results[k].current.has_value());
    EXPECT_EQ(results[0].current->mean, results[k].current->mean);
    EXPECT_EQ(results[0].current->stderr_mean, results[k].current->stderr_mean);
    EXPECT_EQ(results[0].events, results[k].events);
    EXPECT_EQ(results[0].simulated_time, results[k].simulated_time);
  }
}

TEST(Determinism, StabilityMapBitwiseIdenticalAcrossThreadCounts) {
  const auto f = make_set();

  EngineOptions o;
  o.temperature = 5.0;

  StabilityMapConfig cfg;
  cfg.bias_node = f.src;
  cfg.mirror = f.drn;
  cfg.gate_node = f.gate;
  cfg.bias_values = {0.005, 0.01, 0.015, 0.02};
  cfg.gate_values = {0.0, 0.01, 0.02, 0.03, 0.04};
  cfg.probes = {{0, 1.0}, {1, 1.0}};
  cfg.measure = CurrentMeasureConfig{200, 1200, 4};

  ParallelSweepConfig par;
  par.base_seed = 11;
  std::vector<std::vector<std::vector<double>>> maps;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const ParallelExecutor exec(threads);
    maps.push_back(run_stability_map(f.c, o, cfg, exec, par));
  }
  for (std::size_t k = 1; k < maps.size(); ++k) {
    ASSERT_EQ(maps[0].size(), maps[k].size());
    for (std::size_t g = 0; g < maps[0].size(); ++g) {
      ASSERT_EQ(maps[0][g].size(), maps[k][g].size());
      for (std::size_t b = 0; b < maps[0][g].size(); ++b) {
        EXPECT_EQ(maps[0][g][b], maps[k][g][b]) << "g=" << g << " b=" << b;
      }
    }
  }
}

TEST(Determinism, DifferentBaseSeedsDiffer) {
  // The determinism above is not degeneracy: another base seed must change
  // the sampled currents.
  const SimulationInput input = parse_simulation_input(kRepeatsInput);
  DriverOptions a, b;
  a.seed = 5;
  b.seed = 6;
  a.threads = b.threads = 2;
  const DriverResult ra = run_simulation(input, a);
  const DriverResult rb = run_simulation(input, b);
  ASSERT_TRUE(ra.current && rb.current);
  EXPECT_NE(ra.current->mean, rb.current->mean);
}

}  // namespace
}  // namespace semsim
