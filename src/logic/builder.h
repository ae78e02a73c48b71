// Builds SET logic circuits device by device (Fig. 4b style).
//
// The builder owns a Circuit plus the supply/bias rails and provides the
// CMOS-analogue primitives: complementary inverter, NAND2 (parallel pSET
// pull-up, series nSET pull-down), NOR2 (series pull-up, parallel
// pull-down). Wider gates are composed at the gate-netlist level.
#pragma once

#include <string>
#include <vector>

#include "logic/params.h"
#include "netlist/circuit.h"

namespace semsim {

class SetCircuitBuilder {
 public:
  explicit SetCircuitBuilder(SetLogicParams params);

  const SetLogicParams& params() const noexcept { return params_; }

  /// Supply rail (V_dd) and the nSET/pSET phase-bias rail node ids.
  NodeId vdd_rail() const noexcept { return vdd_; }
  NodeId bias_p_rail() const noexcept { return bias_p_; }
  NodeId bias_n_rail() const noexcept { return bias_n_; }

  /// Adds a primary-input lead. Drive it later with Circuit::set_source or
  /// Engine::set_dc_source; defaults to DC 0 (logic low).
  NodeId add_input(std::string name);

  /// Adds a wire node: an island with c_wire to ground and background
  /// charge e/2 (see params.h for why).
  NodeId add_wire(std::string name = {});

  /// Adds an nSET between `drain` and `source`, gated by `input`.
  /// Returns the device island. Conducts when input is HIGH.
  NodeId add_nset(NodeId input, NodeId drain, NodeId source);

  /// Adds a pSET (conducts when input is LOW).
  NodeId add_pset(NodeId input, NodeId drain, NodeId source);

  // ---- complementary gates onto an existing output wire ----
  // (Elaboration pre-creates all wires so latch feedback can reference
  // signals defined later.)

  void build_inverter(NodeId in, NodeId out);
  /// Returns the interior node of the series pull-down (DC value ~ NOT b).
  NodeId build_nand2(NodeId a, NodeId b, NodeId out);
  /// Returns the interior node of the series pull-up (DC value ~ NOT a).
  NodeId build_nor2(NodeId a, NodeId b, NodeId out);

  /// Junction count so far (the paper's Fig. 6/7 x-axis metric).
  std::size_t junction_count() const noexcept { return circuit_.junction_count(); }

  Circuit& circuit() noexcept { return circuit_; }
  const Circuit& circuit() const noexcept { return circuit_; }

 private:
  SetLogicParams params_;
  Circuit circuit_;
  NodeId vdd_ = 0;
  NodeId bias_p_ = 0;
  NodeId bias_n_ = 0;
  int wire_counter_ = 0;
};

}  // namespace semsim
