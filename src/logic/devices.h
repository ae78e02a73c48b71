// The devices of the paper's evaluation, built in one place: the Fig. 1
// SET and its superconducting twin, the Fig. 4 chain of SET stages and the
// Fig. 6-scale random-logic fabric. Tests, benches and examples build
// these devices here instead of by hand, so an element value, a rail or a
// coupler is decided once. Each builder adds its nodes, junctions and
// capacitors in one fixed order: the same arguments give the same circuit,
// bit for bit, wherever it is built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "base/constants.h"
#include "netlist/circuit.h"

namespace semsim {

/// The Fig. 1c superconductor: Delta(0) = 0.2 meV, Tc = 1.2 K.
inline constexpr SuperconductingParams kFig1cMaterial{0.2e-3 * kElectronVolt,
                                                      1.2};

/// A SET's element values. The defaults are the paper's Fig. 1 device:
/// R1 = R2 = 1 MOhm, C1 = C2 = 1 aF, Cg = 3 aF, no background charge, a
/// normal metal.
struct SetElements {
  double resistance = 1e6;          ///< each junction [Ohm]
  double capacitance = 1e-18;       ///< each junction [F]
  double gate_capacitance = 3e-18;  ///< [F]
  double background_charge_e = 0.0; ///< island offset charge [e]
  std::optional<SuperconductingParams> superconducting;
};

/// A built SET: the circuit and its four node ids. Junction 0 runs
/// src -> island and junction 1 island -> drn, so conventional
/// source-to-drain current reads positive on both with +1 probes.
struct SetTransistor {
  Circuit c;
  NodeId src = 0;
  NodeId drn = 0;
  NodeId gate = 0;
  NodeId island = 0;
};

/// The SET with DC sources on its source, drain and gate leads.
SetTransistor make_set(double v_src = 0.0, double v_drn = 0.0,
                       double v_gate = 0.0, const SetElements& elements = {});

/// The Fig. 4 chain: `stages` Fig. 1 SETs between shared +-10 mV rails
/// (vp -> island -> vn), each island on a 20 aF wire capacitance to ground.
/// A positive `coupling_f` ties neighbouring islands by a capacitor of that
/// value; 0 leaves the stages electrostatically isolated.
Circuit make_set_chain(int stages, double coupling_f = 0.0);

/// A seeded random-logic fabric: `blocks` random-logic blocks of
/// `block_junctions` junctions each (make_random_logic_blocks), elaborated
/// on the default SetLogicParams, adjacent blocks' chain outputs tied by
/// 0.5 aF couplers. Every block's chain input carries a 20 ns pulse train
/// at V_dd, block b delayed by b/blocks of a period; the other inputs sit
/// at 0 V.
Circuit make_logic_fabric(std::size_t blocks, std::size_t block_junctions,
                          std::uint64_t seed);

}  // namespace semsim
