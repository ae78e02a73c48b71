// Tests for the gate-level netlist parser and the counting-statistics
// (Fano factor) analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/noise.h"
#include "base/constants.h"
#include "core/engine.h"
#include "logic/devices.h"
#include "logic/elaborate.h"
#include "logic/logic_parser.h"
#include "netlist/circuit.h"

namespace semsim {
namespace {

constexpr double kE = kElementaryCharge;

// ---- logic netlist parser -----------------------------------------------------

const char* kFullAdderNetlist = R"(
# gate-level full adder (paper Sec. III-B logic-representation input)
input a b cin
xor  t    a b
xor  sum  t cin
and  g    a b
and  p    cin t
or   cout g p
output sum cout
)";

TEST(LogicParser, ParsesFullAdderAndEvaluatesCorrectly) {
  const ParsedLogic p = parse_logic_netlist(std::string(kFullAdderNetlist));
  ASSERT_EQ(p.netlist.inputs().size(), 3u);
  ASSERT_EQ(p.netlist.outputs().size(), 2u);
  for (int v = 0; v < 8; ++v) {
    const bool a = v & 1, b = v & 2, cin = v & 4;
    const auto r = p.netlist.evaluate({a, b, cin});
    const int total = int(a) + int(b) + int(cin);
    EXPECT_EQ(r[static_cast<std::size_t>(p.netlist.outputs()[0])], total % 2 == 1);
    EXPECT_EQ(r[static_cast<std::size_t>(p.netlist.outputs()[1])], total >= 2);
  }
}

TEST(LogicParser, ParsedNetlistElaboratesToSetCircuit) {
  const ParsedLogic p = parse_logic_netlist(std::string(kFullAdderNetlist));
  ElaboratedCircuit e = elaborate(p.netlist, SetLogicParams{});
  EXPECT_EQ(e.circuit().junction_count(), 100u);  // the paper's full adder!
  e.circuit().validate();
}

TEST(LogicParser, LatchStatement) {
  const ParsedLogic p = parse_logic_netlist(std::string(R"(
input d en
latch q d en
inv   qn q
output q qn
)"));
  const auto r1 = p.netlist.evaluate({true, true});
  EXPECT_TRUE(r1[static_cast<std::size_t>(p.netlist.outputs()[0])]);
  EXPECT_FALSE(r1[static_cast<std::size_t>(p.netlist.outputs()[1])]);
}

TEST(LogicParser, NamesAreCaseInsensitive) {
  const ParsedLogic p = parse_logic_netlist(std::string(
      "input A b\nNAND y A B\noutput Y\n"));
  EXPECT_EQ(p.netlist.outputs().size(), 1u);
}

TEST(LogicParser, ErrorPaths) {
  // use before definition
  EXPECT_THROW(parse_logic_netlist(std::string("input a\ninv y b\noutput y\n")),
               ParseError);
  // duplicate definition
  EXPECT_THROW(
      parse_logic_netlist(std::string("input a a\ninv y a\noutput y\n")),
      ParseError);
  // wrong arity
  EXPECT_THROW(
      parse_logic_netlist(std::string("input a b\nnand y a\noutput y\n")),
      ParseError);
  // unknown op
  EXPECT_THROW(
      parse_logic_netlist(std::string("input a\nfoo y a\noutput y\n")),
      ParseError);
  // no outputs
  EXPECT_THROW(parse_logic_netlist(std::string("input a\ninv y a\n")),
               ParseError);
  // undefined output
  EXPECT_THROW(parse_logic_netlist(std::string("input a\noutput z\n")),
               ParseError);
  // line numbers in messages
  try {
    parse_logic_netlist(std::string("input a\n\nbogus y a\noutput y\n"));
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// ---- Fano factor ----------------------------------------------------------------

TEST(Fano, PoissonianCotunnelingGivesFanoOne) {
  // Deep blockade at T = 0 with cotunneling: a pure Poisson process.
  auto f = make_set(0.005, -0.005, 0.0);
  EngineOptions o;
  o.temperature = 0.0;
  o.cotunneling = true;
  o.seed = 3;
  Engine e(f.c, o);
  FanoConfig cfg;
  cfg.junction = 0;
  // ~40 events expected per window at this rate.
  const double rate = e.total_rate();
  ASSERT_GT(rate, 0.0);
  cfg.window_time = 40.0 / rate;
  cfg.windows = 300;
  const FanoEstimate est = measure_fano(e, cfg);
  ASSERT_EQ(est.windows, 300u);
  EXPECT_NEAR(est.fano, 1.0, 0.15);
  // Electrons flow drn -> src, i.e. +1 charge unit per event through the
  // (src, island) junction in its a -> b orientation.
  EXPECT_NEAR(est.mean_per_window, 40.0, 6.0);
}

TEST(Fano, SymmetricTwoStateCycleSuppressesNoiseToHalf) {
  // Gate at the degeneracy point, small symmetric bias: entry and exit
  // rates are equal and the textbook result is F = 1/2.
  const double vg_deg = kE / (2.0 * 5e-18) / 0.6;
  auto f = make_set(0.005, -0.005, vg_deg);
  EngineOptions o;
  o.temperature = 0.0;
  o.seed = 7;
  Engine e(f.c, o);
  const double rate = e.total_rate();
  ASSERT_GT(rate, 0.0);
  FanoConfig cfg;
  cfg.junction = 0;
  cfg.window_time = 120.0 / rate;
  cfg.windows = 400;
  const FanoEstimate est = measure_fano(e, cfg);
  ASSERT_EQ(est.windows, 400u);
  EXPECT_NEAR(est.fano, 0.5, 0.08);
  EXPECT_GT(std::abs(est.current), 1e-11);
}

TEST(Fano, StuckEngineReportsNoWindows) {
  auto f = make_set(0.0, 0.0, 0.0);
  EngineOptions o;
  o.temperature = 0.0;
  Engine e(f.c, o);
  FanoConfig cfg;
  cfg.junction = 0;
  cfg.window_time = 1e-9;
  cfg.windows = 10;
  cfg.warmup_events = 10;
  const FanoEstimate est = measure_fano(e, cfg);
  // Blocked circuit: windows elapse (time passes) but nothing is counted.
  EXPECT_DOUBLE_EQ(est.mean_per_window, 0.0);
  EXPECT_DOUBLE_EQ(est.current, 0.0);
}

TEST(Fano, ValidatesConfig) {
  auto f = make_set(0.005, -0.005, 0.0);
  EngineOptions o;
  o.temperature = 1.0;
  Engine e(f.c, o);
  FanoConfig bad;
  bad.window_time = 0.0;
  EXPECT_THROW(measure_fano(e, bad), Error);
  bad.window_time = 1e-9;
  bad.windows = 1;
  EXPECT_THROW(measure_fano(e, bad), Error);
}

}  // namespace
}  // namespace semsim
