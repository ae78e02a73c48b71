#include "logic/devices.h"

#include <utility>

#include "logic/elaborate.h"
#include "logic/random_logic.h"

namespace semsim {
namespace {

constexpr double kChainRailV = 0.01;       ///< vp = +10 mV, vn = -10 mV
constexpr double kChainWireF = 20e-18;     ///< each island to ground [F]
constexpr double kFabricCouplerF = 0.5e-18;  ///< between adjacent blocks [F]
constexpr double kFabricPulsePeriod = 20e-9;  ///< chain-input pulses [s]

}  // namespace

SetTransistor make_set(double v_src, double v_drn, double v_gate,
                       const SetElements& elements) {
  SetTransistor s;
  Circuit& c = s.c;
  s.src = c.add_external("src");
  s.drn = c.add_external("drn");
  s.gate = c.add_external("gate");
  s.island = c.add_island("island");
  c.add_junction(s.src, s.island, elements.resistance, elements.capacitance);
  c.add_junction(s.island, s.drn, elements.resistance, elements.capacitance);
  c.add_capacitor(s.gate, s.island, elements.gate_capacitance);
  c.set_background_charge(s.island, elements.background_charge_e);
  if (elements.superconducting) {
    c.set_superconducting(*elements.superconducting);
  }
  c.set_source(s.src, Waveform::dc(v_src));
  c.set_source(s.drn, Waveform::dc(v_drn));
  c.set_source(s.gate, Waveform::dc(v_gate));
  c.build_caches();
  return s;
}

Circuit make_set_chain(int stages, double coupling_f) {
  Circuit c;
  const NodeId vp = c.add_external("vp");
  const NodeId vn = c.add_external("vn");
  c.set_source(vp, Waveform::dc(kChainRailV));
  c.set_source(vn, Waveform::dc(-kChainRailV));
  const SetElements fig1;
  NodeId prev = Circuit::kGroundNode;
  for (int s = 0; s < stages; ++s) {
    const NodeId i = c.add_island();
    c.add_junction(vp, i, fig1.resistance, fig1.capacitance);
    c.add_junction(i, vn, fig1.resistance, fig1.capacitance);
    c.add_capacitor(i, Circuit::kGroundNode, kChainWireF);
    if (coupling_f > 0.0 && s > 0) c.add_capacitor(prev, i, coupling_f);
    prev = i;
  }
  c.build_caches();
  return c;
}

Circuit make_logic_fabric(std::size_t blocks, std::size_t block_junctions,
                          std::uint64_t seed) {
  RandomLogicSpec spec;
  spec.target_junctions = block_junctions;
  spec.seed = seed;
  const RandomLogicBlocks rb = make_random_logic_blocks(spec, blocks);
  const SetLogicParams params{};
  ElaboratedCircuit elab = elaborate(rb.netlist, params);
  Circuit& c = elab.circuit();
  for (std::size_t b = 0; b + 1 < blocks; ++b) {
    c.add_capacitor(elab.node(rb.chain_out[b]), elab.node(rb.chain_out[b + 1]),
                    kFabricCouplerF);
  }
  const auto& ins = rb.netlist.inputs();
  const std::size_t per_block = ins.size() / blocks;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const double delay = kFabricPulsePeriod *
                         static_cast<double>(i / per_block) /
                         static_cast<double>(blocks);
    c.set_source(elab.node(ins[i]),
                 i % per_block == 0
                     ? Waveform::pulse(0.0, params.vdd, delay,
                                       0.5 * kFabricPulsePeriod,
                                       kFabricPulsePeriod)
                     : Waveform::dc(0.0));
  }
  c.build_caches();
  return std::move(c);
}

}  // namespace semsim
