// Tests for the SET logic substrate: gate IR, elaboration, the nSET/pSET
// device design (does a Monte-Carlo-simulated inverter actually invert?),
// benchmark construction and the delay testbench.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/delay.h"
#include "base/constants.h"
#include "logic/benchmarks.h"
#include "logic/builder.h"
#include "logic/elaborate.h"
#include "logic/gate_netlist.h"
#include "logic/params.h"
#include "logic/random_logic.h"
#include "logic/testbench.h"

namespace semsim {
namespace {

// ---- parameters ---------------------------------------------------------------

TEST(LogicParams, DesignRules) {
  SetLogicParams p;
  const double e = kElementaryCharge;
  const double tau = e / p.c_sigma();
  // Supply must fit inside the blockade period.
  EXPECT_LT(p.vdd, tau);
  // nSET ON tuning: C_g Vdd + C_b V_bias_n = e/2 (phi at gnd degeneracy).
  EXPECT_NEAR(p.c_g * p.vdd + p.c_b * p.v_bias_n(), 0.5 * e, 1e-25);
  // pSET ON tuning: 2 C_j Vdd + C_b V_bias_p = C_sigma Vdd + e/2 (mod e),
  // i.e. phi at the Vdd-side degeneracy.
  const double q_on_p = 2.0 * p.c_j * p.vdd + p.c_b * p.v_bias_p();
  const double target = p.c_sigma() * p.vdd + 0.5 * e;
  const double diff = std::abs(q_on_p - target);
  const double mod = std::fmod(diff, e);
  EXPECT_LT(std::min(mod, e - mod), 1e-25);
  // Charging energy >> kT at the logic operating point.
  EXPECT_GT(p.charging_energy(), 50.0 * kBoltzmann * p.temperature);
}

TEST(LogicParams, OffDeviceBlockadeMargin) {
  // The OFF-state polarization must land inside the blockade band with a
  // margin far above the thermal scale (see params.h derivation).
  SetLogicParams p;
  EXPECT_GT(p.off_margin(),
            30.0 * kBoltzmann * p.temperature / kElementaryCharge);
  // And the design must detect broken parameter sets.
  SetLogicParams broken = p;
  broken.vdd = 0.054;  // nearly a full period: no band left
  EXPECT_LT(broken.off_margin(), 0.002);
}

// ---- gate netlist IR ------------------------------------------------------------

TEST(GateNetlist, EvaluateBasicOps) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  const SignalId b = n.add_input("b");
  const SignalId inv = n.add(GateOp::kInv, a);
  const SignalId nand2 = n.add(GateOp::kNand2, a, b);
  const SignalId nor2 = n.add(GateOp::kNor2, a, b);
  const SignalId xor2 = n.add(GateOp::kXor2, a, b);
  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      const auto v = n.evaluate({va, vb});
      EXPECT_EQ(v[static_cast<std::size_t>(inv)], !va);
      EXPECT_EQ(v[static_cast<std::size_t>(nand2)], !(va && vb));
      EXPECT_EQ(v[static_cast<std::size_t>(nor2)], !(va || vb));
      EXPECT_EQ(v[static_cast<std::size_t>(xor2)], va != vb);
    }
  }
}

TEST(GateNetlist, TreesAndMux) {
  GateNetlist n;
  std::vector<SignalId> in;
  for (int i = 0; i < 5; ++i) in.push_back(n.add_input(std::string("i") + std::to_string(i)));
  const SignalId all = n.and_tree(in);
  const SignalId any = n.or_tree(in);
  const SignalId parity = n.xor_tree(in);
  const SignalId m = n.mux2(in[0], in[1], in[2]);
  const auto check = [&](std::vector<bool> v) {
    const auto r = n.evaluate(v);
    bool e_all = true, e_any = false, e_par = false;
    for (const bool x : v) {
      e_all = e_all && x;
      e_any = e_any || x;
      e_par = e_par != x;
    }
    EXPECT_EQ(r[static_cast<std::size_t>(all)], e_all);
    EXPECT_EQ(r[static_cast<std::size_t>(any)], e_any);
    EXPECT_EQ(r[static_cast<std::size_t>(parity)], e_par);
    EXPECT_EQ(r[static_cast<std::size_t>(m)], v[2] ? v[1] : v[0]);
  };
  check({false, false, false, false, false});
  check({true, false, true, false, true});
  check({true, true, true, true, true});
  check({false, true, false, true, false});
}

TEST(GateNetlist, DLatchTransparentAndJunctionCount) {
  GateNetlist n;
  const SignalId d = n.add_input("d");
  const SignalId en = n.add_input("en");
  const SignalId q = n.d_latch(d, en);
  // Transparent: q follows d while en = 1.
  EXPECT_TRUE(n.evaluate({true, true})[static_cast<std::size_t>(q)]);
  EXPECT_FALSE(n.evaluate({false, true})[static_cast<std::size_t>(q)]);
  EXPECT_EQ(n.junction_count(), 4u + 4u * 8u);
}

TEST(GateNetlist, JunctionCosts) {
  EXPECT_EQ(gate_junction_cost(GateOp::kInv), 4u);
  EXPECT_EQ(gate_junction_cost(GateOp::kNand2), 8u);
  EXPECT_EQ(gate_junction_cost(GateOp::kAnd2), 12u);  // Fig. 4b's AND = 12
  EXPECT_EQ(gate_junction_cost(GateOp::kXor2), 32u);
}

// ---- elaboration ------------------------------------------------------------------

TEST(Elaborate, JunctionCountMatchesIr) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  const SignalId b = n.add_input("b");
  const SignalId x = n.add(GateOp::kXor2, a, b);
  const SignalId y = n.add(GateOp::kAnd2, x, a);
  n.mark_output(y);
  ElaboratedCircuit e = elaborate(n, SetLogicParams{});
  EXPECT_EQ(e.circuit().junction_count(), n.junction_count());
}

TEST(Elaborate, InverterStructure) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  n.mark_output(n.add(GateOp::kInv, a));
  ElaboratedCircuit e = elaborate(n, SetLogicParams{});
  // vdd + two bias rails + input = 4 externals; inverter = out wire + 2
  // device islands; 4 junctions.
  EXPECT_EQ(e.circuit().junction_count(), 4u);
  EXPECT_EQ(e.circuit().externals().size(), 4u);
  EXPECT_EQ(e.circuit().islands().size(), 3u);
  e.circuit().validate();
}

// ---- Monte-Carlo device behaviour ---------------------------------------------------

// Measures the settled output voltage of an elaborated single-gate circuit
// for a given input vector.
double settled_output(const GateNetlist& netlist, const std::vector<bool>& in,
                      SignalId out_sig, std::uint64_t seed) {
  LogicBenchmark b;
  b.netlist = netlist;  // copy
  b.toggle_input = 0;
  b.base_vector = in;
  ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  // DC inputs only.
  const double vdd = elab.builder.params().vdd;
  for (std::size_t i = 0; i < netlist.inputs().size(); ++i) {
    elab.circuit().set_source(elab.node(netlist.inputs()[i]),
                              Waveform::dc(in[i] ? vdd : 0.0));
  }
  EngineOptions o;
  o.temperature = elab.builder.params().temperature;
  o.seed = seed;
  Engine engine(elab.circuit(), o);
  // Settle: stage delays are ~15-20 ns at 2 K and gates settle in sequence.
  engine.run_until(60e-9 * static_cast<double>(netlist.gate_count() + 1));
  // Time-average the output over a further window to squash shot noise.
  double acc = 0.0, tw = 0.0;
  const NodeId out = elab.node(out_sig);
  for (int i = 0; i < 4000; ++i) {
    Event ev;
    if (!engine.step(&ev)) break;
    acc += engine.node_voltage(out) * ev.dt;
    tw += ev.dt;
  }
  return tw > 0.0 ? acc / tw : engine.node_voltage(out);
}

TEST(SetLogicMc, InverterInverts) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  const SignalId y = n.add(GateOp::kInv, a);
  n.mark_output(y);
  const double vdd = SetLogicParams{}.vdd;
  const double v_low_in = settled_output(n, {false}, y, 11);
  const double v_high_in = settled_output(n, {true}, y, 12);
  EXPECT_GT(v_low_in, 0.75 * vdd) << "output should be HIGH for input 0";
  EXPECT_LT(v_high_in, 0.25 * vdd) << "output should be LOW for input 1";
}

TEST(SetLogicMc, Nand2TruthTable) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  const SignalId b = n.add_input("b");
  const SignalId y = n.add(GateOp::kNand2, a, b);
  n.mark_output(y);
  const double vdd = SetLogicParams{}.vdd;
  EXPECT_GT(settled_output(n, {false, false}, y, 21), 0.7 * vdd);
  EXPECT_GT(settled_output(n, {true, false}, y, 22), 0.7 * vdd);
  EXPECT_GT(settled_output(n, {false, true}, y, 23), 0.7 * vdd);
  EXPECT_LT(settled_output(n, {true, true}, y, 24), 0.3 * vdd);
}

TEST(SetLogicMc, Nor2TruthTable) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  const SignalId b = n.add_input("b");
  const SignalId y = n.add(GateOp::kNor2, a, b);
  n.mark_output(y);
  const double vdd = SetLogicParams{}.vdd;
  EXPECT_GT(settled_output(n, {false, false}, y, 31), 0.7 * vdd);
  EXPECT_LT(settled_output(n, {true, false}, y, 32), 0.3 * vdd);
  EXPECT_LT(settled_output(n, {false, true}, y, 33), 0.3 * vdd);
  EXPECT_LT(settled_output(n, {true, true}, y, 34), 0.3 * vdd);
}

TEST(SetLogicMc, InverterChainPropagates) {
  GateNetlist n;
  const SignalId a = n.add_input("a");
  SignalId s = a;
  for (int i = 0; i < 3; ++i) s = n.add(GateOp::kInv, s);
  n.mark_output(s);  // odd chain: out = NOT a
  const double vdd = SetLogicParams{}.vdd;
  EXPECT_GT(settled_output(n, {false}, s, 41), 0.7 * vdd);
  EXPECT_LT(settled_output(n, {true}, s, 42), 0.3 * vdd);
}

// ---- benchmarks ------------------------------------------------------------------------

TEST(Benchmarks, AllFifteenExistInPaperOrder) {
  const auto all = make_all_benchmarks();
  ASSERT_EQ(all.size(), 15u);
  EXPECT_EQ(all.front().name, "2-to-10-decoder");
  EXPECT_EQ(all.back().name, "c1908");
  // Sizes ascend in paper order.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].paper_junctions, all[i - 1].paper_junctions);
  }
}

TEST(Benchmarks, AllSensitized) {
  for (const LogicBenchmark& b : make_all_benchmarks()) {
    EXPECT_TRUE(is_sensitized(b)) << b.name;
  }
}

TEST(Benchmarks, IscasStandInsMatchPaperJunctionCountsExactly) {
  for (const char* name : {"c432", "c1355", "c499", "c1908"}) {
    const LogicBenchmark b = make_benchmark(name);
    EXPECT_EQ(b.netlist.junction_count(), b.paper_junctions) << name;
  }
}

TEST(Benchmarks, StructuralModelsAreSameOrderAsPaper) {
  for (const LogicBenchmark& b : make_all_benchmarks()) {
    const double ratio = static_cast<double>(b.netlist.junction_count()) /
                         static_cast<double>(b.paper_junctions);
    EXPECT_GT(ratio, 0.3) << b.name;
    EXPECT_LT(ratio, 3.5) << b.name;
  }
}

TEST(Benchmarks, FullAdderLogicIsCorrect) {
  const LogicBenchmark b = make_benchmark("full-adder");
  for (int v = 0; v < 8; ++v) {
    const bool a = v & 1, bb = v & 2, cin = v & 4;
    const auto r = b.netlist.evaluate({a, bb, cin});
    const int total = int(a) + int(bb) + int(cin);
    EXPECT_EQ(r[static_cast<std::size_t>(b.netlist.outputs()[0])], total % 2 == 1);
    EXPECT_EQ(r[static_cast<std::size_t>(b.netlist.outputs()[1])], total >= 2);
  }
}

TEST(Benchmarks, DecoderOneHot) {
  const LogicBenchmark b = make_benchmark("74154");
  for (int v = 0; v < 16; ++v) {
    std::vector<bool> in = {bool(v & 1), bool(v & 2), bool(v & 4), bool(v & 8),
                            false, false};  // enables active
    const auto r = b.netlist.evaluate(in);
    for (int o = 0; o < 16; ++o) {
      const bool y = r[static_cast<std::size_t>(b.netlist.outputs()[static_cast<std::size_t>(o)])];
      EXPECT_EQ(y, o != v) << "v=" << v << " o=" << o;  // active-low outputs
    }
  }
}

TEST(Benchmarks, ParityMatches) {
  const LogicBenchmark b = make_benchmark("74LS280");
  std::vector<bool> in(9, false);
  in[2] = in[5] = in[7] = true;  // odd count = 3
  const auto r = b.netlist.evaluate(in);
  EXPECT_FALSE(r[static_cast<std::size_t>(b.netlist.outputs()[0])]);  // even
  EXPECT_TRUE(r[static_cast<std::size_t>(b.netlist.outputs()[1])]);   // odd
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("c17"), Error);
}

TEST(RandomLogic, ExactSizingAndDeterminism) {
  RandomLogicSpec spec;
  spec.target_junctions = 2000;
  spec.seed = 7;
  const GateNetlist a = make_random_logic(spec);
  const GateNetlist b = make_random_logic(spec);
  EXPECT_EQ(a.junction_count(), 2000u);
  EXPECT_EQ(a.signal_count(), b.signal_count());
  spec.seed = 8;
  const GateNetlist c = make_random_logic(spec);
  EXPECT_NE(a.signal_count(), c.signal_count());
}

TEST(RandomLogic, ChainIsSensitized) {
  RandomLogicSpec spec;
  spec.target_junctions = 800;
  spec.seed = 3;
  const GateNetlist n = make_random_logic(spec);
  // Output 0 is the chain end; toggling input 0 flips it.
  std::vector<bool> v0(static_cast<std::size_t>(spec.n_inputs), false);
  std::vector<bool> v1 = v0;
  v1[0] = true;
  const SignalId out = n.outputs()[0];
  EXPECT_NE(n.evaluate(v0)[static_cast<std::size_t>(out)],
            n.evaluate(v1)[static_cast<std::size_t>(out)]);
  EXPECT_THROW(make_random_logic(RandomLogicSpec{1001, 1, 8, 4}), Error);
}

// ---- testbench ------------------------------------------------------------------------

TEST(Testbench, InverterDelayMeasurable) {
  LogicBenchmark b;
  const SignalId a = b.netlist.add_input("a");
  SignalId s = a;
  for (int i = 0; i < 2; ++i) s = b.netlist.add(GateOp::kInv, s);
  b.netlist.mark_output(s);
  b.name = "inv2";
  b.toggle_input = 0;
  b.base_vector = {false};
  b.observe_output = 0;

  ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  auto model = std::make_shared<const ElectrostaticModel>(elab.circuit());
  DelayRunConfig cfg;
  cfg.seed = 5;
  const DelayRunResult r = run_delay_experiment(b, elab, model, cfg);
  ASSERT_TRUE(delay_valid(r.delay)) << "no output transition detected";
  EXPECT_GT(r.delay, 1e-11);
  EXPECT_LT(r.delay, 1e-6);  // thermally-assisted tails vary run to run
}

TEST(Testbench, AdaptiveAndNonAdaptiveDelaysAgree) {
  // The Fig. 7 experiment in miniature: the adaptive solver's delay should
  // track the non-adaptive reference within a few percent (paper: 3.3%
  // average over nine seeds; we use a small gate and looser shot-noise
  // bounds here — the full experiment lives in bench/fig7_accuracy).
  const LogicBenchmark b = make_benchmark("full-adder");
  ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  auto model = std::make_shared<const ElectrostaticModel>(elab.circuit());

  auto mean_delay = [&](bool adaptive) {
    double acc = 0.0;
    int n = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      DelayRunConfig cfg;
      cfg.engine.adaptive.enabled = adaptive;
      cfg.seed = seed;
      const DelayRunResult r = run_delay_experiment(b, elab, model, cfg);
      if (delay_valid(r.delay)) {
        acc += r.delay;
        ++n;
      }
    }
    EXPECT_GT(n, 2);
    return acc / n;
  };
  const double d_adaptive = mean_delay(true);
  const double d_reference = mean_delay(false);
  ASSERT_GT(d_reference, 0.0);
  EXPECT_NEAR(d_adaptive / d_reference, 1.0, 0.25);
}

TEST(Testbench, MultiSeedDelaysArePinnedAtAnyThreadCount) {
  // The Fig. 7 seed loop: seed s runs on derive_stream_seed(7, s), and the
  // four workers share one elaborated circuit and one model. The delays
  // and the solver work are pinned bit for bit at both thread counts.
  const LogicBenchmark b = make_benchmark("full-adder");
  ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  auto model = std::make_shared<const ElectrostaticModel>(elab.circuit());
  DelayRunConfig cfg;
  cfg.engine.adaptive.enabled = true;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const MultiSeedDelayResult r = run_delay_experiment_seeds(
        b, elab, model, cfg, /*base_seed=*/7, /*n_seeds=*/3,
        ParallelExecutor(threads));
    EXPECT_EQ(r.delays, (std::vector<double>{0x1.7b3b14b838cdbp-23,
                                             0x1.7deeb9207a181p-23,
                                             0x1.d8a6a59762421p-23}));
    EXPECT_EQ(r.valid, 3u);
    EXPECT_EQ(r.mean_delay, 0x1.9b457bd0070d4p-23);
    EXPECT_EQ(r.counters.units, 3u);
    EXPECT_EQ(r.counters.threads, threads);
    const SolverStats& s = r.counters.stats;
    EXPECT_EQ(s.events, 21694u);
    EXPECT_EQ(s.rate_evaluations, 270246u);
    EXPECT_EQ(s.cp_rate_evaluations, 0u);
    EXPECT_EQ(s.cot_rate_evaluations, 0u);
    EXPECT_EQ(s.potential_node_updates, 372725u);
    EXPECT_EQ(s.junctions_tested, 424292u);
    EXPECT_EQ(s.junctions_flagged, 132523u);
    EXPECT_EQ(s.full_refreshes, 26u);
    EXPECT_EQ(s.source_updates, 3u);
  }
}

TEST(Testbench, PerformanceWindowRuns) {
  const LogicBenchmark b = make_benchmark("full-adder");
  ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  auto model = std::make_shared<const ElectrostaticModel>(elab.circuit());
  PerfRunConfig cfg;
  cfg.events = 3000;
  const PerfRunResult r = run_performance_window(b, elab, model, cfg);
  EXPECT_EQ(r.events, 3000u);
  EXPECT_GT(r.simulated_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(Testbench, AdaptiveDoesLessWorkOnMediumBenchmark) {
  const LogicBenchmark b = make_benchmark("74LS138");
  ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  auto model = std::make_shared<const ElectrostaticModel>(elab.circuit());
  PerfRunConfig ca, cn;
  ca.events = cn.events = 4000;
  ca.engine.adaptive.enabled = true;
  cn.engine.adaptive.enabled = false;
  const PerfRunResult ra = run_performance_window(b, elab, model, ca);
  const PerfRunResult rn = run_performance_window(b, elab, model, cn);
  EXPECT_LT(ra.stats.rate_evaluations, rn.stats.rate_evaluations / 3);
}

}  // namespace
}  // namespace semsim
