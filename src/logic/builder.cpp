#include "logic/builder.h"

#include "base/error.h"

namespace semsim {

SetCircuitBuilder::SetCircuitBuilder(SetLogicParams params) : params_(params) {
  require(params_.off_margin() >
              5.0 * kBoltzmann * params_.temperature / kElementaryCharge,
          "SetCircuitBuilder: logic parameters have no OFF-state blockade "
          "margin (see SetLogicParams::off_margin)");
  vdd_ = circuit_.add_external("vdd");
  circuit_.set_source(vdd_, Waveform::dc(params_.vdd));
  bias_p_ = circuit_.add_external("vbias_p");
  circuit_.set_source(bias_p_, Waveform::dc(params_.v_bias_p()));
  bias_n_ = circuit_.add_external("vbias_n");
  circuit_.set_source(bias_n_, Waveform::dc(params_.v_bias_n()));
}

NodeId SetCircuitBuilder::add_input(std::string name) {
  const NodeId n = circuit_.add_external(std::move(name));
  circuit_.set_source(n, Waveform::dc(0.0));
  return n;
}

NodeId SetCircuitBuilder::add_wire(std::string name) {
  if (name.empty()) name.append("w").append(std::to_string(wire_counter_++));
  const NodeId n = circuit_.add_island(std::move(name));
  circuit_.add_capacitor(n, Circuit::kGroundNode, params_.c_wire);
  circuit_.set_background_charge(n, 0.5);
  return n;
}

NodeId SetCircuitBuilder::add_nset(NodeId input, NodeId drain, NodeId source) {
  const NodeId isl = circuit_.add_island();
  circuit_.add_junction(drain, isl, params_.r_j, params_.c_j);
  circuit_.add_junction(isl, source, params_.r_j, params_.c_j);
  circuit_.add_capacitor(input, isl, params_.c_g);
  // Phase gate pins the ON device at the gnd-side degeneracy (params.h).
  circuit_.add_capacitor(bias_n_, isl, params_.c_b);
  return isl;
}

NodeId SetCircuitBuilder::add_pset(NodeId input, NodeId drain, NodeId source) {
  const NodeId isl = circuit_.add_island();
  circuit_.add_junction(drain, isl, params_.r_j, params_.c_j);
  circuit_.add_junction(isl, source, params_.r_j, params_.c_j);
  circuit_.add_capacitor(input, isl, params_.c_g);
  // Phase gate at V_bias_p shifts the transfer curve by half a period,
  // turning the nSET characteristic into its complement (paper Sec. IV-B:
  // "a second gate ... with a constant gate voltage").
  circuit_.add_capacitor(bias_p_, isl, params_.c_b);
  return isl;
}

void SetCircuitBuilder::build_inverter(NodeId in, NodeId out) {
  add_pset(in, vdd_, out);
  add_nset(in, out, Circuit::kGroundNode);
}

NodeId SetCircuitBuilder::build_nand2(NodeId a, NodeId b, NodeId out) {
  // Parallel pull-up.
  add_pset(a, vdd_, out);
  add_pset(b, vdd_, out);
  // Series pull-down through an interior wire node.
  const NodeId mid = add_wire();
  add_nset(a, out, mid);
  add_nset(b, mid, Circuit::kGroundNode);
  return mid;
}

NodeId SetCircuitBuilder::build_nor2(NodeId a, NodeId b, NodeId out) {
  // Series pull-up.
  const NodeId mid = add_wire();
  add_pset(a, vdd_, mid);
  add_pset(b, mid, out);
  // Parallel pull-down.
  add_nset(a, out, Circuit::kGroundNode);
  add_nset(b, out, Circuit::kGroundNode);
  return mid;
}

}  // namespace semsim
