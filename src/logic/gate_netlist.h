// Gate-level intermediate representation for the logic benchmarks.
//
// A GateNetlist is a DAG of 1- and 2-input gates over primary inputs. It can
// be evaluated functionally (to pick and verify sensitized input vectors for
// the Fig. 7 delay experiments) and elaborated into a device-level SET
// circuit (logic/elaborate.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace semsim {

/// Signal index within a GateNetlist.
using SignalId = int;

enum class GateOp : std::uint8_t {
  kInput,
  kInv,
  kBuf,
  kAnd2,
  kOr2,
  kNand2,
  kNor2,
  kXor2,
  kXnor2,
};

/// Number of data inputs of an op (0 for kInput).
int gate_arity(GateOp op) noexcept;

/// SET junctions needed by the elaborated gate (kBuf = 2 inverters).
std::size_t gate_junction_cost(GateOp op) noexcept;

class GateNetlist {
 public:
  struct Gate {
    GateOp op = GateOp::kInput;
    SignalId a = -1;
    SignalId b = -1;
    std::string name;
  };

  /// Adds a primary input; returns its signal id.
  SignalId add_input(std::string name);

  /// Adds a gate over existing signals; returns the new signal id.
  SignalId add(GateOp op, SignalId a, SignalId b = -1, std::string name = {});

  /// Marks a signal as a primary output.
  void mark_output(SignalId s);

  std::size_t signal_count() const noexcept { return gates_.size(); }
  const Gate& gate(SignalId s) const { return gates_.at(static_cast<std::size_t>(s)); }
  const std::vector<SignalId>& inputs() const noexcept { return inputs_; }
  const std::vector<SignalId>& outputs() const noexcept { return outputs_; }
  std::size_t gate_count() const noexcept { return gates_.size() - inputs_.size(); }

  /// Total SET junction count of the elaborated netlist.
  std::size_t junction_count() const noexcept;

  /// Evaluates every signal for the given input values (indexed like
  /// inputs()). Returns one bool per signal id.
  std::vector<bool> evaluate(const std::vector<bool>& input_values) const;

  // ---- convenience composite builders (expand to the primitive ops) ----

  SignalId and_tree(const std::vector<SignalId>& xs);
  SignalId or_tree(const std::vector<SignalId>& xs);
  SignalId nand_tree(const std::vector<SignalId>& xs);  // INV(and_tree) shape
  SignalId xor_tree(const std::vector<SignalId>& xs);
  /// mux = sel ? hi : lo
  SignalId mux2(SignalId lo, SignalId hi, SignalId sel);
  /// Gated D-latch (transparent while en = 1): 4 NAND2 with feedback.
  /// NOTE: introduces combinational loops; evaluate() treats latch outputs
  /// with a two-pass fixpoint and requires en = 1 vectors for sensitization.
  SignalId d_latch(SignalId d, SignalId en);

 private:
  std::vector<Gate> gates_;
  std::vector<SignalId> inputs_;
  std::vector<SignalId> outputs_;
  std::vector<std::pair<std::size_t, std::size_t>> latch_feedback_;  // (gate idx, feeds idx)
};

}  // namespace semsim
