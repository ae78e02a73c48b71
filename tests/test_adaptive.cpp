// Adaptive-path lockdown: differential/property tests for the SoA
// frontier/epoch BFS (core/adaptive_solver.h), the fused flagged-commit
// kernel (RateCalculator::flagged_rates_fused), the batched cotunneling
// kernel, and the adaptive work counters.
//
// The central invariant (DESIGN.md section 3e): the optimized
// collect()/collect_event() must flag exactly the junctions, in exactly the
// discovery order, that the retained reference BFS (collect_reference)
// produces — order is load-bearing because the engine commits flagged rates
// to the Fenwick tree in discovery order and the tree's floating-point sums
// are order-sensitive. Topologies come from the random logic DAG generator
// (the same netlists the Fig. 7 experiments elaborate), so the BFS sees
// realistic multi-fanout island graphs, not just chains.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/constants.h"
#include "base/random.h"
#include "core/adaptive_solver.h"
#include "core/engine.h"
#include "core/options.h"
#include "core/rate_calculator.h"
#include "logic/devices.h"
#include "logic/elaborate.h"
#include "logic/gate_netlist.h"
#include "logic/params.h"
#include "logic/random_logic.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "netlist/waveform.h"
#include "physics/rates.h"

namespace semsim {
namespace {

// ---- frontier/epoch BFS vs reference BFS -----------------------------------

struct SolverFixture {
  GateNetlist netlist;
  ElaboratedCircuit elab;
  ElectrostaticModel em;
  explicit SolverFixture(std::uint64_t seed, std::size_t junctions = 96)
      : netlist(make_random_logic(
            RandomLogicSpec{junctions, seed, /*n_inputs=*/8,
                            /*chain_length=*/4})),
        elab(elaborate(netlist, SetLogicParams{})),
        em(elab.circuit()) {}
  const Circuit& circuit() const { return elab.circuit(); }
};

/// One randomized lock-stepped campaign: both implementations driven from
/// identical accumulator state through `rounds` perturbations. Asserts
/// tested counts, flagged membership AND order, and the post-round
/// accumulator state bit for bit.
void run_lockstep_campaign(const Circuit& c, const ElectrostaticModel& em,
                           Xoshiro256& rng, int rounds,
                           std::vector<std::size_t>* flag_log = nullptr) {
  const std::size_t j_count = c.junction_count();
  // Log-uniform alpha spanning never-flags to always-flags regimes.
  const double alpha = std::pow(10.0, -4.0 * rng.uniform01());
  AdaptiveSolver opt(c, em, alpha);
  std::vector<double> dw(2 * j_count);
  std::vector<double> b0_ref(j_count, 0.0);
  auto reroll_dw = [&] {
    for (double& w : dw) {
      const double sign = rng.uniform01() < 0.5 ? -1.0 : 1.0;
      w = rng.uniform01() < 0.1
              ? 0.0
              : sign * std::pow(10.0, -22.0 + 2.0 * rng.uniform01());
    }
  };
  reroll_dw();
  opt.bind_delta_w(dw.data());

  std::vector<double> dv_node(c.node_count(), 0.0);
  std::vector<std::size_t> seeds, flag_opt, flag_ref;
  for (int round = 0; round < rounds; ++round) {
    // Random perturbation: most nodes move a little, some not at all;
    // ground (node 0) never moves.
    for (std::size_t n = 1; n < dv_node.size(); ++n) {
      dv_node[n] = rng.uniform01() < 0.3
                       ? 0.0
                       : (rng.uniform01() - 0.5) *
                             std::pow(10.0, -5.0 + 3.0 * rng.uniform01());
    }
    const auto dv_of = [&](NodeId n) {
      return dv_node[static_cast<std::size_t>(n)];
    };

    seeds.clear();
    const std::size_t n_seeds = 1 + rng.uniform_below(4);
    for (std::size_t s = 0; s < n_seeds; ++s) {
      seeds.push_back(rng.uniform_below(j_count));  // duplicates are legal
    }

    const std::size_t tested_opt = opt.collect(seeds, dv_of, flag_opt);
    const std::size_t tested_ref =
        opt.collect_reference(seeds, dv_of, b0_ref, flag_ref);
    ASSERT_EQ(tested_opt, tested_ref) << "round " << round;
    ASSERT_EQ(flag_opt, flag_ref)
        << "round " << round << ": flagged set or ORDER diverged";
    for (std::size_t j = 0; j < j_count; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(opt.accumulated(j)),
                std::bit_cast<std::uint64_t>(b0_ref[j]))
          << "round " << round << " junction " << j << " accumulator";
    }
    if (flag_log) {
      flag_log->push_back(flag_opt.size());
      flag_log->insert(flag_log->end(), flag_opt.begin(), flag_opt.end());
    }

    // Mirror the engine: flagged junctions get recomputed (fresh dW values,
    // accumulators discharged) in both implementations.
    for (const std::size_t j : flag_opt) {
      const double sign = rng.uniform01() < 0.5 ? -1.0 : 1.0;
      dw[2 * j] = sign * std::pow(10.0, -22.0 + 2.0 * rng.uniform01());
      dw[2 * j + 1] = -dw[2 * j] * (0.5 + rng.uniform01());
      opt.mark_fresh(j);
      b0_ref[j] = 0.0;
    }
    // Occasional full refresh, as the periodic exact recompute would do.
    if (rng.uniform01() < 0.1) {
      reroll_dw();
      opt.reset_accumulators();
      std::fill(b0_ref.begin(), b0_ref.end(), 0.0);
    }
  }
}

class FrontierVsReference : public ::testing::TestWithParam<int> {};

TEST_P(FrontierVsReference, CollectMatchesReferenceOnRandomLogicDag) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  SolverFixture f(seed, 64 + 16 * (seed % 5));
  Xoshiro256 rng(seed * 7919 + 3);
  run_lockstep_campaign(f.circuit(), f.em, rng, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierVsReference, ::testing::Range(1, 9));

TEST(FrontierVsReference, CollectEventMatchesSeedRowExpansion) {
  // collect_event seeds straight from the per-island CSR rows; the contract
  // is bit-compatibility with collect() over the concatenated
  // coupled-junction lists of the two event islands — which in turn matches
  // the reference BFS.
  SolverFixture f(11, 96);
  const Circuit& c = f.circuit();
  Xoshiro256 rng(0xEE11);
  AdaptiveSolver opt(c, f.em, 0.01);
  AdaptiveSolver mirror(c, f.em, 0.01);
  const std::size_t j_count = c.junction_count();
  std::vector<double> dw(2 * j_count);
  for (double& w : dw) {
    w = (rng.uniform01() - 0.5) * 2e-21;
  }
  opt.bind_delta_w(dw.data());
  mirror.bind_delta_w(dw.data());
  std::vector<double> b0_ref(j_count, 0.0);
  std::vector<double> dv_node(c.node_count(), 0.0);
  std::vector<std::size_t> flag_opt, flag_ref, seeds;

  const std::size_t n_isl = f.em.island_count();
  for (int round = 0; round < 200; ++round) {
    for (std::size_t n = 1; n < dv_node.size(); ++n) {
      if (!c.is_island(static_cast<NodeId>(n))) continue;  // leads fixed
      dv_node[n] = (rng.uniform01() - 0.5) * 2e-4;
    }
    // Random event endpoints: occasionally a lead (-1), else an island.
    const int kf = rng.uniform01() < 0.2
                       ? -1
                       : static_cast<int>(rng.uniform_below(n_isl));
    const int kt = rng.uniform01() < 0.2
                       ? -1
                       : static_cast<int>(rng.uniform_below(n_isl));
    const auto dv_isl = [&](std::size_t k) {
      return dv_node[static_cast<std::size_t>(f.em.island_node(k))];
    };
    const std::size_t tested =
        opt.collect_event(kf, kt, dv_isl, flag_opt);

    seeds.clear();
    for (const int k : {kf, kt}) {
      if (k < 0) continue;
      const NodeId isl = f.em.island_node(static_cast<std::size_t>(k));
      const std::vector<std::size_t>& row = c.coupled_junctions_of(isl);
      seeds.insert(seeds.end(), row.begin(), row.end());
    }
    const auto dv_of = [&](NodeId n) {
      return c.is_island(n) ? dv_node[static_cast<std::size_t>(n)] : 0.0;
    };
    const std::size_t tested_ref =
        mirror.collect_reference(seeds, dv_of, b0_ref, flag_ref);
    ASSERT_EQ(tested, tested_ref) << "round " << round;
    ASSERT_EQ(flag_opt, flag_ref) << "round " << round;
    for (std::size_t j = 0; j < j_count; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(opt.accumulated(j)),
                std::bit_cast<std::uint64_t>(b0_ref[j]))
          << "round " << round << " junction " << j;
    }
    for (const std::size_t j : flag_opt) {
      opt.mark_fresh(j);
      b0_ref[j] = 0.0;
    }
  }
}

TEST(FrontierVsReference, CollectIsThreadCountIndependent) {
  // Eight threads each run the identical campaign on their own solver over
  // the SHARED circuit and electrostatic model (the parallel sweep setup);
  // every thread must log the identical flagged sequence. Guards against
  // hidden mutable state leaking through the shared const references.
  SolverFixture f(5, 96);
  // The adjacency caches are built lazily; warm them before the threads
  // share the circuit, as Circuit::build_caches() requires.
  f.circuit().build_caches();
  constexpr int kThreads = 8;
  std::vector<std::vector<std::size_t>> logs(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0xABCD);  // same stream in every thread
      run_lockstep_campaign(f.circuit(), f.em, rng, 25, &logs[t]);
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(logs[t], logs[0]) << "thread " << t << " diverged";
  }
}

TEST(FrontierVsReference, AdaptiveTrajectoryIdenticalAcrossThreads) {
  // Engine-level determinism on a random-logic DAG: the same seeded
  // adaptive engine stepped inside 8 concurrent threads must execute the
  // bit-identical event sequence as a lone engine (shared electrostatic
  // model, per-thread engine — the parallel driver's configuration).
  SolverFixture f(3, 64);
  Circuit& c = f.elab.circuit();
  const SetLogicParams p;
  const auto& ins = f.netlist.inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    c.set_source(f.elab.node(ins[i]), Waveform::dc(i % 2 ? p.vdd : 0.0));
  }
  EngineOptions o;
  o.temperature = p.temperature;
  o.seed = 2718;

  auto run_events_digest = [&]() {
    Engine e(c, o);
    std::uint64_t digest = 1469598103934665603ULL;  // FNV offset
    Event ev;
    for (int i = 0; i < 1500; ++i) {
      if (!e.step(&ev)) break;
      digest ^= std::bit_cast<std::uint64_t>(ev.time) + ev.index;
      digest *= 1099511628211ULL;
    }
    return digest;
  };

  const std::uint64_t lone = run_events_digest();
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> digests(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] { digests[t] = run_events_digest(); });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(digests[t], lone) << "thread " << t;
  }
}

// ---- fused flagged-commit kernel vs staged pipeline ------------------------

struct SetFixture {
  Circuit c;
  NodeId src, drn, gate, island;
  SetFixture() {
    src = c.add_external("src");
    drn = c.add_external("drn");
    gate = c.add_external("gate");
    island = c.add_island("island");
    c.add_junction(src, island, 1e6, 1e-18);
    c.add_junction(island, drn, 1.5e6, 1.2e-18);
    c.add_capacitor(gate, island, 3e-18);
    c.set_source(src, Waveform::dc(0.02));
    c.set_source(drn, Waveform::dc(-0.02));
    c.set_source(gate, Waveform::dc(0.0));
  }
};

TEST(FusedFlaggedCommit, BitwiseEqualsStagedGatherKernelScatter) {
  // flagged_rates_fused's contract: ΔW bitwise equal to delta_w_flagged,
  // rates bitwise equal to tunnel_rates_batch over the gathered subset —
  // for every temperature branch (T = 0, thermal with and without the rate
  // memo) and arbitrary flagged subsets including duplicates.
  // A multi-island chain gives a realistic flagged-subset shape.
  const Circuit c = make_set_chain(16);
  const ElectrostaticModel em(c);
  Xoshiro256 rng(0xF05ED);
  const std::size_t j_count = c.junction_count();

  for (double temperature : {0.0, 0.05, 1.0, 4.2}) {
    EngineOptions o;
    o.temperature = temperature;
    const RateCalculator calc(c, em, o);

    // Engine-like unified potential array: islands first, then externals.
    const std::size_t n_slots = em.island_count() + em.external_count() + 1;
    std::vector<double> v(n_slots);
    std::vector<std::uint32_t> sa(j_count), sb(j_count);
    auto slot_of = [&](NodeId n) -> std::uint32_t {
      const int k = em.island_index(n);
      if (k >= 0) return static_cast<std::uint32_t>(k);
      const int e = em.external_index(n);
      if (e >= 0)
        return static_cast<std::uint32_t>(em.island_count() +
                                          static_cast<std::size_t>(e));
      return static_cast<std::uint32_t>(n_slots - 1);  // ground slot
    };
    for (std::size_t j = 0; j < j_count; ++j) {
      sa[j] = slot_of(c.junction(j).a);
      sb[j] = slot_of(c.junction(j).b);
    }

    for (int trial = 0; trial < 25; ++trial) {
      for (double& x : v) x = (rng.uniform01() - 0.5) * 0.08;
      v[n_slots - 1] = 0.0;  // ground
      const std::size_t nf = 1 + rng.uniform_below(j_count);
      std::vector<std::size_t> flagged(nf);
      for (std::size_t i = 0; i < nf; ++i) {
        flagged[i] = rng.uniform_below(j_count);
      }

      // Staged path: compact ΔW gather -> batch kernel over gathered g.
      std::vector<double> dw_compact(2 * nf), g_compact(2 * nf),
          rates_staged(2 * nf);
      calc.delta_w_flagged(v.data(), sa.data(), sb.data(), flagged.data(), nf,
                           dw_compact.data());
      const double* g = calc.channel_conductance();
      for (std::size_t i = 0; i < nf; ++i) {
        g_compact[2 * i] = g[2 * flagged[i]];
        g_compact[2 * i + 1] = g[2 * flagged[i] + 1];
      }
      tunnel_rates_batch(dw_compact.data(), g_compact.data(), calc.kt(),
                         rates_staged.data(), 2 * nf);

      std::vector<double> dw_store(2 * j_count, -7.0);
      std::vector<double> rates_fused(2 * nf, -7.0);
      calc.flagged_rates_fused(v.data(), sa.data(), sb.data(),
                               flagged.data(), nf, dw_store.data(),
                               rates_fused.data());
      for (std::size_t i = 0; i < nf; ++i) {
        const std::size_t j = flagged[i];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dw_store[2 * j]),
                  std::bit_cast<std::uint64_t>(dw_compact[2 * i]))
            << "T " << temperature << " junction " << j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dw_store[2 * j + 1]),
                  std::bit_cast<std::uint64_t>(dw_compact[2 * i + 1]));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(rates_fused[2 * i]),
                  std::bit_cast<std::uint64_t>(rates_staged[2 * i]))
            << "T " << temperature << " junction " << j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(rates_fused[2 * i + 1]),
                  std::bit_cast<std::uint64_t>(rates_staged[2 * i + 1]));
      }
      if (calc.kt() <= 0.0) continue;
      // Through the exact rate memo: cold, then every channel again
      // (hits), each pass bitwise the staged kernel's rates.
      std::vector<RateMemoLine> memo(2 * j_count);
      for (int pass = 0; pass < 2; ++pass) {
        const std::size_t hits = calc.flagged_rates_fused(
            v.data(), sa.data(), sb.data(), flagged.data(), nf,
            dw_store.data(), rates_fused.data(), memo.data());
        if (pass == 1) {
          EXPECT_EQ(hits, 2 * nf);
        }
        for (std::size_t i = 0; i < 2 * nf; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(rates_fused[i]),
                    std::bit_cast<std::uint64_t>(rates_staged[i]))
              << "T " << temperature << " memo pass " << pass;
        }
      }
    }
  }
}

TEST(CotunnelingBatch, ExactModeBitwiseEqualsPerPathRate) {
  SetFixture f;
  const ElectrostaticModel em(f.c);
  EngineOptions o;
  o.temperature = 1.3;
  o.cotunneling = true;
  const RateCalculator calc(f.c, em, o);
  const auto& paths = calc.cotunneling_paths();
  ASSERT_FALSE(paths.empty());

  Xoshiro256 rng(0xC07);
  const std::size_t n_nodes = f.c.node_count();
  std::vector<double> v(n_nodes);
  std::vector<std::uint32_t> cot_slot;
  for (const CotunnelingPath& p : paths) {
    cot_slot.push_back(static_cast<std::uint32_t>(p.from));
    cot_slot.push_back(static_cast<std::uint32_t>(p.via));
    cot_slot.push_back(static_cast<std::uint32_t>(p.to));
  }
  std::vector<double> out(paths.size());
  for (int trial = 0; trial < 200; ++trial) {
    for (double& x : v) x = (rng.uniform01() - 0.5) * 0.05;
    calc.cotunneling_rates_batch(v.data(), cot_slot.data(), out.data());
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const double ref = calc.cotunneling_path_rate(
          paths[p], v[static_cast<std::size_t>(paths[p].from)],
          v[static_cast<std::size_t>(paths[p].via)],
          v[static_cast<std::size_t>(paths[p].to)]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[p]),
                std::bit_cast<std::uint64_t>(ref))
          << "trial " << trial << " path " << p;
    }
  }
}

// ---- adaptive work counters ------------------------------------------------

/// ext -- J0 -- isl0 -- J1 -- isl1 -- J2 -- ext: the hand-analyzable
/// 3-junction chain of the counter tests.
struct ThreeJunctionChain {
  Circuit c;
  NodeId left, right, isl0, isl1;
  ThreeJunctionChain() {
    left = c.add_external("left");
    right = c.add_external("right");
    isl0 = c.add_island("isl0");
    isl1 = c.add_island("isl1");
    c.add_junction(left, isl0, 1e6, 1e-18);
    c.add_junction(isl0, isl1, 1e6, 1e-18);
    c.add_junction(isl1, right, 1e6, 1e-18);
    c.set_source(left, Waveform::dc(0.05));
    c.set_source(right, Waveform::dc(-0.05));
  }
};

TEST(AdaptiveCounters, DegenerateThresholdFlagsWholeChainEveryEvent) {
  // alpha -> 0: any drift flags. On the 3-junction chain every event's test
  // cascades across all 3 junctions (the flagged junction enqueues its
  // island neighbours, which flag too), so the closed form is
  // junctions_tested == junctions_flagged == 3 * events.
  ThreeJunctionChain f;
  EngineOptions o;
  o.temperature = 4.2;
  o.adaptive.threshold = 1e-300;
  o.seed = 7;
  Engine e(f.c, o);
  const std::uint64_t n = 900;  // below the refresh interval (1000)
  ASSERT_EQ(e.run_events(n), n);
  EXPECT_EQ(e.stats().junctions_tested, 3 * n);
  EXPECT_EQ(e.stats().junctions_flagged, 3 * n);
  EXPECT_EQ(e.stats().events, n);
}

TEST(AdaptiveCounters, HugeThresholdNeverFlags) {
  // alpha so large nothing ever flags: flagged stays 0 and the tested count
  // is just the seed rows — 2 junctions for an end-junction event, 3 for a
  // middle one — with no cascade.
  ThreeJunctionChain f;
  EngineOptions o;
  o.temperature = 4.2;
  o.adaptive.threshold = 1e12;
  o.seed = 7;
  Engine e(f.c, o);
  const std::uint64_t before_evals = e.stats().rate_evaluations;
  const std::uint64_t n = 900;
  ASSERT_EQ(e.run_events(n), n);
  EXPECT_EQ(e.stats().junctions_flagged, 0u);
  EXPECT_GE(e.stats().junctions_tested, 2 * n);
  EXPECT_LE(e.stats().junctions_tested, 3 * n);
  // No flags -> no per-event rate work beyond the construction refresh.
  EXPECT_EQ(e.stats().rate_evaluations, before_evals);
}

TEST(AdaptiveCounters, ConservedAcrossCheckpointResume) {
  // A run restored from a snapshot must reproduce the original run's
  // counters exactly: the snapshot carries SolverStats verbatim and the
  // continuation is bitwise identical, so tested/flagged totals — the
  // Fig. 6 cost metrics — cannot drift across a checkpoint boundary.
  SetFixture f;
  EngineOptions o;
  o.temperature = 1.0;
  o.seed = 99;
  Engine a(f.c, o);
  ASSERT_EQ(a.run_events(1500), 1500u);
  const EngineSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.stats.junctions_flagged, a.stats().junctions_flagged);
  ASSERT_EQ(a.run_events(1500), 1500u);

  Engine b(f.c, o);
  b.restore(snap);
  EXPECT_EQ(b.stats().junctions_tested, snap.stats.junctions_tested);
  ASSERT_EQ(b.run_events(1500), 1500u);

  EXPECT_EQ(a.stats().events, b.stats().events);
  EXPECT_EQ(a.stats().rate_evaluations, b.stats().rate_evaluations);
  EXPECT_EQ(a.stats().junctions_tested, b.stats().junctions_tested);
  EXPECT_EQ(a.stats().junctions_flagged, b.stats().junctions_flagged);
  EXPECT_EQ(a.stats().full_refreshes, b.stats().full_refreshes);
  EXPECT_EQ(a.stats().potential_node_updates,
            b.stats().potential_node_updates);
}

TEST(AdaptiveCounters, RunCountersAbsorbFlagsRaised) {
  // The run tally sums SolverStats field by field: the flags an engine
  // raised, like every other counter, reach the tally verbatim, and the
  // document's combined rate-evaluation total is all three kinds.
  ThreeJunctionChain f;
  EngineOptions o;
  o.temperature = 4.2;
  o.seed = 3;
  Engine e(f.c, o);
  ASSERT_EQ(e.run_events(500), 500u);
  const SolverStats& s = e.stats();
  ASSERT_GT(s.junctions_flagged, 0u);

  RunCounters rc;
  rc.stats += s;
  rc.stats += s;
  EXPECT_EQ(rc.stats.junctions_flagged, 2 * s.junctions_flagged);
  EXPECT_EQ(rc.stats.junctions_tested, 2 * s.junctions_tested);
  EXPECT_EQ(rc.stats.events, 2 * s.events);
  EXPECT_EQ(rc.stats.potential_node_updates, 2 * s.potential_node_updates);
  EXPECT_EQ(rc.stats.full_refreshes, 2 * s.full_refreshes);
  EXPECT_EQ(rc.stats.all_rate_evaluations(),
            2 * (s.rate_evaluations + s.cp_rate_evaluations +
                 s.cot_rate_evaluations));
}

}  // namespace
}  // namespace semsim
