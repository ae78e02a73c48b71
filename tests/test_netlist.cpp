// Tests for circuit construction, waveforms, electrostatics and the parser.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "base/constants.h"
#include "base/error.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "netlist/parser.h"
#include "netlist/waveform.h"

namespace semsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The paper's Fig. 1 SET: R1 = R2 = 1 MOhm, C1 = C2 = 1 aF, Cg = 3 aF.
struct SetFixture {
  Circuit c;
  NodeId src, drn, gate, island;
  SetFixture() {
    src = c.add_external("source");
    drn = c.add_external("drain");
    gate = c.add_external("gate");
    island = c.add_island("island");
    c.add_junction(src, island, 1e6, 1e-18);
    c.add_junction(drn, island, 1e6, 1e-18);
    c.add_capacitor(gate, island, 3e-18);
  }
};

// ---- Waveform ---------------------------------------------------------------

TEST(Waveform, DcConstantNoBreakpoints) {
  const Waveform w = Waveform::dc(0.02);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.02);
  EXPECT_DOUBLE_EQ(w.value(1e9), 0.02);
  EXPECT_EQ(w.next_breakpoint(0.0), kInf);
  EXPECT_TRUE(w.is_dc());
  EXPECT_DOUBLE_EQ(w.max_abs(), 0.02);
}

TEST(Waveform, Step) {
  const Waveform w = Waveform::step(0.0, 1.0, 5.0);
  EXPECT_DOUBLE_EQ(w.value(4.999), 0.0);
  EXPECT_DOUBLE_EQ(w.value(5.0), 1.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(0.0), 5.0);
  EXPECT_EQ(w.next_breakpoint(5.0), kInf);
  EXPECT_DOUBLE_EQ(w.max_abs(), 1.0);
}

TEST(Waveform, PulseTrain) {
  const Waveform w = Waveform::pulse(0.0, 2.0, 1.0, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(w.value(0.5), 0.0);   // before delay
  EXPECT_DOUBLE_EQ(w.value(1.2), 2.0);   // inside first pulse
  EXPECT_DOUBLE_EQ(w.value(1.7), 0.0);   // after first pulse
  EXPECT_DOUBLE_EQ(w.value(3.2), 2.0);   // second period
  EXPECT_DOUBLE_EQ(w.next_breakpoint(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(1.0), 1.5);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(1.5), 3.0);
}

TEST(Waveform, PulseRejectsBadShape) {
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 2.0, 1.0), Error);
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 0.0, 1.0), Error);
}

TEST(Waveform, Piecewise) {
  const Waveform w = Waveform::piecewise({1.0, 2.0, 4.0}, {0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.1);  // before first point
  EXPECT_DOUBLE_EQ(w.value(1.5), 0.1);
  EXPECT_DOUBLE_EQ(w.value(2.0), 0.2);
  EXPECT_DOUBLE_EQ(w.value(10.0), 0.3);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(2.0), 4.0);
  EXPECT_EQ(w.next_breakpoint(4.0), kInf);
  EXPECT_DOUBLE_EQ(w.max_abs(), 0.3);
}

TEST(Waveform, PiecewiseRejectsUnsorted) {
  EXPECT_THROW(Waveform::piecewise({2.0, 1.0}, {0.0, 1.0}), Error);
  EXPECT_THROW(Waveform::piecewise({}, {}), Error);
}

TEST(Waveform, SineSampleAndHold) {
  const Waveform w = Waveform::sine(0.5, 1.0, 1.0, 0.25);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.5);
  EXPECT_NEAR(w.value(0.25), 0.5 + std::sin(M_PI / 2.0), 1e-12);
  EXPECT_DOUBLE_EQ(w.value(0.3), w.value(0.25));  // held
  EXPECT_DOUBLE_EQ(w.next_breakpoint(0.0), 0.25);
  EXPECT_DOUBLE_EQ(w.max_abs(), 1.5);
}

// ---- Circuit ----------------------------------------------------------------

TEST(Circuit, GroundIsNodeZero) {
  Circuit c;
  EXPECT_EQ(c.node_count(), 1u);
  EXPECT_EQ(c.node(0).kind, NodeKind::kGround);
  EXPECT_DOUBLE_EQ(c.source(Circuit::kGroundNode).value(1.0), 0.0);
}

TEST(Circuit, BuilderAssignsSequentialIds) {
  SetFixture f;
  EXPECT_EQ(f.src, 1);
  EXPECT_EQ(f.island, 4);
  EXPECT_EQ(f.c.junction_count(), 2u);
  EXPECT_EQ(f.c.capacitor_count(), 1u);
  EXPECT_TRUE(f.c.is_island(f.island));
  EXPECT_FALSE(f.c.is_island(f.gate));
}

TEST(Circuit, RejectsBadElements) {
  Circuit c;
  const NodeId a = c.add_external();
  const NodeId i = c.add_island();
  EXPECT_THROW(c.add_junction(a, a, 1e6, 1e-18), CircuitError);
  EXPECT_THROW(c.add_junction(a, i, 0.0, 1e-18), CircuitError);
  EXPECT_THROW(c.add_junction(a, i, 1e6, 0.0), CircuitError);
  EXPECT_THROW(c.add_capacitor(a, i, -1e-18), CircuitError);
  EXPECT_THROW(c.add_junction(a, 99, 1e6, 1e-18), Error);
}

TEST(Circuit, SourceOnlyOnExternals) {
  Circuit c;
  const NodeId i = c.add_island();
  EXPECT_THROW(c.set_source(i, Waveform::dc(1.0)), CircuitError);
  EXPECT_THROW(c.set_background_charge(Circuit::kGroundNode, 0.1), CircuitError);
}

TEST(Circuit, BackgroundChargeOnlyOnIslands) {
  Circuit c;
  const NodeId e = c.add_external();
  EXPECT_THROW(c.set_background_charge(e, 0.65), CircuitError);
  const NodeId i = c.add_island();
  c.set_background_charge(i, 0.65);
  EXPECT_DOUBLE_EQ(c.background_charge_e(i), 0.65);
}

TEST(Circuit, ValidateCatchesDisconnectedIsland) {
  Circuit c;
  c.add_island("floating");
  EXPECT_THROW(c.validate(), CircuitError);
}

TEST(Circuit, AdjacencyLists) {
  SetFixture f;
  const auto& at_island = f.c.junctions_of(f.island);
  EXPECT_EQ(at_island.size(), 2u);
  EXPECT_EQ(f.c.junctions_of(f.gate).size(), 0u);  // gate couples via cap only
  EXPECT_EQ(f.c.junctions_of(f.src).size(), 1u);
}

TEST(Circuit, IslandAndExternalEnumeration) {
  SetFixture f;
  EXPECT_EQ(f.c.islands(), std::vector<NodeId>{f.island});
  EXPECT_EQ(f.c.externals(), (std::vector<NodeId>{f.src, f.drn, f.gate}));
}

TEST(Circuit, SuperconductingParams) {
  Circuit c;
  EXPECT_FALSE(c.superconducting());
  EXPECT_THROW(c.superconducting_params(), Error);
  c.set_superconducting({0.2e-3 * kElectronVolt, 1.2});
  EXPECT_TRUE(c.superconducting());
  EXPECT_DOUBLE_EQ(c.superconducting_params().tc, 1.2);
  EXPECT_THROW(c.set_superconducting({-1.0, 1.0}), CircuitError);
}

// ---- ElectrostaticModel -------------------------------------------------------

TEST(Electrostatics, SetCapacitanceMatrix) {
  SetFixture f;
  ElectrostaticModel m(f.c);
  EXPECT_EQ(m.island_count(), 1u);
  EXPECT_EQ(m.external_count(), 3u);
  // C_sigma = C1 + C2 + Cg = 5 aF.
  EXPECT_NEAR(m.total_capacitance(f.island), 5e-18, 1e-30);
  // kappa = 1 / C_sigma.
  EXPECT_NEAR(m.kappa()(0, 0), 1.0 / 5e-18, 1e3);
  // Source gains: C1/Cs, C2/Cs, Cg/Cs.
  EXPECT_NEAR(m.source_gain()(0, 0), 0.2, 1e-12);
  EXPECT_NEAR(m.source_gain()(0, 1), 0.2, 1e-12);
  EXPECT_NEAR(m.source_gain()(0, 2), 0.6, 1e-12);
}

TEST(Electrostatics, KappaNodeZeroOffIslands) {
  SetFixture f;
  ElectrostaticModel m(f.c);
  EXPECT_DOUBLE_EQ(m.kappa_node(f.src, f.island), 0.0);
  EXPECT_DOUBLE_EQ(m.kappa_node(f.src, f.src), 0.0);
  EXPECT_GT(m.kappa_node(f.island, f.island), 0.0);
}

TEST(Electrostatics, IslandPotentialSuperposition) {
  SetFixture f;
  ElectrostaticModel m(f.c);
  // One excess electron, all sources grounded: v = -e / C_sigma.
  const auto v1 = m.island_potentials({-kElementaryCharge}, {0.0, 0.0, 0.0});
  EXPECT_NEAR(v1[0], -kElementaryCharge / 5e-18, 1e-9);
  // Neutral island, gate at 10 mV: v = 0.6 * 10 mV.
  const auto v2 = m.island_potentials({0.0}, {0.0, 0.0, 0.01});
  EXPECT_NEAR(v2[0], 0.006, 1e-12);
  // Superposition of the two.
  const auto v3 = m.island_potentials({-kElementaryCharge}, {0.0, 0.0, 0.01});
  EXPECT_NEAR(v3[0], v1[0] + v2[0], 1e-12);
}

TEST(Electrostatics, ChargeDeltaMatchesPotentialDifference) {
  SetFixture f;
  ElectrostaticModel m(f.c);
  const double q = -kElementaryCharge;
  const auto v0 = m.island_potentials({0.0}, {0.0, 0.0, 0.0});
  const auto v1 = m.island_potentials({q}, {0.0, 0.0, 0.0});
  // The engine's per-event potential change: the moved charge times the
  // kappa row of the island that received it.
  const double* row =
      m.kappa_row(static_cast<std::size_t>(m.island_index(f.island)));
  EXPECT_NEAR(ElectrostaticModel::potential_delta_row(row, 0, q),
              v1[0] - v0[0], 1e-15);
  // Non-island endpoint (no kappa row): no contribution.
  EXPECT_EQ(m.island_index(f.src), -1);
  EXPECT_DOUBLE_EQ(ElectrostaticModel::potential_delta_row(nullptr, 0, q),
                   0.0);
}

TEST(Electrostatics, SourceStepDeltaMatchesGain) {
  SetFixture f;
  ElectrostaticModel m(f.c);
  // A 10 mV gate step moves the island by S[island][gate] * 10 mV.
  const auto gate = static_cast<std::size_t>(m.external_index(f.gate));
  EXPECT_NEAR(m.source_gain()(0, gate) * 0.01, 0.006, 1e-12);
}

TEST(Electrostatics, TwoIslandCouplingSymmetry) {
  Circuit c;
  const NodeId l = c.add_external();
  const NodeId r = c.add_external();
  const NodeId i1 = c.add_island();
  const NodeId i2 = c.add_island();
  c.add_junction(l, i1, 1e6, 1e-18);
  c.add_junction(i1, i2, 1e6, 2e-18);
  c.add_junction(i2, r, 1e6, 1e-18);
  ElectrostaticModel m(c);
  // kappa entries are ~1/aF ~ 1e17, so symmetry is relative.
  const double scale = m.kappa_node(i1, i1);
  EXPECT_TRUE(m.kappa().is_symmetric(1e-9 * scale));
  EXPECT_NEAR(m.kappa_node(i1, i2), m.kappa_node(i2, i1), 1e-9 * scale);
  EXPECT_GT(m.kappa_node(i1, i2), 0.0);  // positive coupling
  // Tighter self-coupling than cross-coupling.
  EXPECT_GT(m.kappa_node(i1, i1), m.kappa_node(i1, i2));
}

TEST(Electrostatics, FloatingIslandRejected) {
  Circuit c;
  const NodeId i1 = c.add_island();
  const NodeId i2 = c.add_island();
  // i1-i2 coupled to each other but to no fixed potential: C_II singular.
  c.add_capacitor(i1, i2, 1e-18);
  EXPECT_THROW(ElectrostaticModel{c}, NumericError);
}

// ---- Parser -----------------------------------------------------------------

const char* kPaperExample = R"(
#SET component definitions
junc 1 1 4 1meg 1e-18
junc 2 2 4 1meg 1e-18
cap 3 4 3e-18
charge 4 0.0

#Input source information
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1

#Overall node information
num j 2
num ext 3
num nodes 4

#Simulation specific information
temp 5
cotunnel
record 1 2 2
jumps 100000 1
sweep 2 0.02 0.00005
)";

TEST(Parser, PaperExampleInputFile) {
  const SimulationInput in = parse_simulation_input(std::string(kPaperExample));
  EXPECT_EQ(in.circuit.node_count(), 5u);  // ground + 4
  EXPECT_EQ(in.circuit.junction_count(), 2u);
  EXPECT_EQ(in.circuit.capacitor_count(), 1u);
  EXPECT_TRUE(in.circuit.is_island(4));
  EXPECT_FALSE(in.circuit.is_island(3));
  EXPECT_DOUBLE_EQ(in.circuit.source(1).value(0.0), 0.02);
  EXPECT_DOUBLE_EQ(in.circuit.source(2).value(0.0), -0.02);
  EXPECT_DOUBLE_EQ(in.temperature, 5.0);
  EXPECT_TRUE(in.cotunneling);
  EXPECT_EQ(in.record_junctions, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(in.max_jumps, 100000u);
  EXPECT_EQ(in.repeats, 1u);
  ASSERT_TRUE(in.sweep.has_value());
  EXPECT_EQ(in.sweep->source, 2);
  EXPECT_DOUBLE_EQ(in.sweep->max, 0.02);
  EXPECT_DOUBLE_EQ(in.sweep->step, 0.00005);
  EXPECT_EQ(in.sweep->mirror, 1);
  // Junction resistances parsed with the "meg" suffix.
  EXPECT_DOUBLE_EQ(in.circuit.junction(0).resistance, 1e6);
}

TEST(Parser, SuperconductingDirective) {
  const SimulationInput in = parse_simulation_input(std::string(R"(
num ext 2
num nodes 3
junc 1 1 3 210k 110a
junc 2 2 3 210k 110a
temp 0.52
super 0.21 1.2
)"));
  ASSERT_TRUE(in.circuit.superconducting());
  EXPECT_NEAR(in.circuit.superconducting_params().delta0,
              0.21e-3 * kElectronVolt, 1e-28);
  EXPECT_DOUBLE_EQ(in.circuit.superconducting_params().tc, 1.2);
}

TEST(Parser, StepAndPulseSources) {
  const SimulationInput in = parse_simulation_input(std::string(R"(
num ext 2
num nodes 3
junc 1 1 3 1meg 1a
junc 2 2 3 1meg 1a
vstep 1 0 0.01 1e-9
vpulse 2 0 0.01 0 1e-9 2e-9
time 1e-6
)"));
  EXPECT_DOUBLE_EQ(in.circuit.source(1).value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(in.circuit.source(1).value(2e-9), 0.01);
  EXPECT_DOUBLE_EQ(in.circuit.source(2).value(0.5e-9), 0.01);
  EXPECT_DOUBLE_EQ(in.max_time, 1e-6);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_simulation_input(std::string("num ext 1\nnum nodes 2\nbogus 1 2\n"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Parser, MissingNumBlockRejected) {
  EXPECT_THROW(parse_simulation_input(std::string("junc 1 1 2 1meg 1a\n")),
               ParseError);
}

TEST(Parser, JunctionCountCrossChecked) {
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 1
num nodes 2
num j 2
junc 1 1 2 1meg 1a
)")),
               ParseError);
}

TEST(Parser, RecordCountMismatchRejected) {
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 1
num nodes 2
junc 1 1 2 1meg 1a
record 2 1
)")),
               ParseError);
}

TEST(Parser, NodeOutOfRangeRejected) {
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 1
num nodes 2
junc 1 1 7 1meg 1a
)")),
               ParseError);
}

TEST(Parser, SweepOnIslandRejected) {
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 1
num nodes 2
junc 1 1 2 1meg 1a
sweep 2 0.01 0.001
)")),
               ParseError);
}

TEST(Parser, DuplicateSourceRejected) {
  // A second source on the same lead would silently overwrite the first;
  // the diagnostic names both lines.
  try {
    parse_simulation_input(std::string(R"(num ext 1
num nodes 2
junc 1 1 2 1meg 1a
vdc 1 0.02
vstep 1 0.0 0.02 1e-9
)"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("already has a source"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  }
  // Same kind twice is just as wrong.
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 1
num nodes 2
junc 1 1 2 1meg 1a
vdc 1 0.02
vdc 1 0.03
)")),
               ParseError);
}

TEST(Parser, MixedSuperconductingAndCotunnelingRejected) {
  // Cotunneling rates exist for normal-state circuits only; the combination
  // is a ParseError at parse time, not a CircuitError at engine build.
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 2
num nodes 3
junc 1 1 3 210k 110a
junc 2 3 2 210k 110a
temp 0.52
super 0.21 1.2
cotunnel
)")),
               ParseError);
  // Directive order must not matter.
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 2
num nodes 3
junc 1 1 3 210k 110a
junc 2 3 2 210k 110a
temp 0.52
cotunnel
super 0.21 1.2
)")),
               ParseError);
}

TEST(Parser, DanglingIslandRejected) {
  // Node 3 is declared an island but connects to nothing: Circuit::validate
  // reports it as a CircuitError (which is also a semsim::Error).
  EXPECT_THROW(parse_simulation_input(std::string(R"(
num ext 1
num nodes 3
junc 1 1 2 1meg 1a
)")),
               CircuitError);
}

}  // namespace
}  // namespace semsim
