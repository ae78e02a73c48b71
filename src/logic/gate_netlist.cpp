#include "logic/gate_netlist.h"

#include "base/error.h"

namespace semsim {

int gate_arity(GateOp op) noexcept {
  switch (op) {
    case GateOp::kInput:
      return 0;
    case GateOp::kInv:
    case GateOp::kBuf:
      return 1;
    default:
      return 2;
  }
}

std::size_t gate_junction_cost(GateOp op) noexcept {
  switch (op) {
    case GateOp::kInput: return 0;
    case GateOp::kInv: return 4;     // pSET + nSET
    case GateOp::kBuf: return 8;     // 2 inverters
    case GateOp::kNand2: return 8;   // 4 devices
    case GateOp::kNor2: return 8;
    case GateOp::kAnd2: return 12;   // NAND2 + INV (matches Fig. 4b's 12)
    case GateOp::kOr2: return 12;    // NOR2 + INV
    case GateOp::kXor2: return 32;   // 4 NAND2
    case GateOp::kXnor2: return 36;  // XOR2 + INV
  }
  return 0;
}

SignalId GateNetlist::add_input(std::string name) {
  const SignalId id = static_cast<SignalId>(gates_.size());
  gates_.push_back(Gate{GateOp::kInput, -1, -1, std::move(name)});
  inputs_.push_back(id);
  return id;
}

SignalId GateNetlist::add(GateOp op, SignalId a, SignalId b, std::string name) {
  require(op != GateOp::kInput, "GateNetlist::add: use add_input for inputs");
  const int arity = gate_arity(op);
  require(a >= 0 && a < static_cast<SignalId>(gates_.size()),
          "GateNetlist::add: input a out of range");
  if (arity == 2) {
    // b == -2 marks a feedback input patched later via latch construction.
    require(b == -2 || (b >= 0 && b < static_cast<SignalId>(gates_.size())),
            "GateNetlist::add: input b out of range");
  }
  const SignalId id = static_cast<SignalId>(gates_.size());
  gates_.push_back(Gate{op, a, arity == 2 ? b : -1, std::move(name)});
  return id;
}

void GateNetlist::mark_output(SignalId s) {
  require(s >= 0 && s < static_cast<SignalId>(gates_.size()),
          "GateNetlist::mark_output: signal out of range");
  outputs_.push_back(s);
}

std::size_t GateNetlist::junction_count() const noexcept {
  std::size_t n = 0;
  for (const Gate& g : gates_) n += gate_junction_cost(g.op);
  return n;
}

std::vector<bool> GateNetlist::evaluate(
    const std::vector<bool>& input_values) const {
  require(input_values.size() == inputs_.size(),
          "GateNetlist::evaluate: input vector size mismatch");
  std::vector<bool> v(gates_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    v[static_cast<std::size_t>(inputs_[i])] = input_values[i];
  }
  // Iterative relaxation: one pass settles a DAG (signal ids are
  // topological); latch feedback converges in a few extra passes.
  for (int pass = 0; pass < 8; ++pass) {
    bool changed = false;
    for (std::size_t s = 0; s < gates_.size(); ++s) {
      const Gate& g = gates_[s];
      if (g.op == GateOp::kInput) continue;
      const bool a = v[static_cast<std::size_t>(g.a)];
      const bool b = g.b >= 0 ? v[static_cast<std::size_t>(g.b)] : false;
      bool out = false;
      switch (g.op) {
        case GateOp::kInput: break;
        case GateOp::kInv: out = !a; break;
        case GateOp::kBuf: out = a; break;
        case GateOp::kAnd2: out = a && b; break;
        case GateOp::kOr2: out = a || b; break;
        case GateOp::kNand2: out = !(a && b); break;
        case GateOp::kNor2: out = !(a || b); break;
        case GateOp::kXor2: out = a != b; break;
        case GateOp::kXnor2: out = a == b; break;
      }
      if (out != v[s]) {
        v[s] = out;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return v;
}

SignalId GateNetlist::and_tree(const std::vector<SignalId>& xs) {
  require(!xs.empty(), "and_tree: empty input list");
  std::vector<SignalId> layer = xs;
  while (layer.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(add(GateOp::kAnd2, layer[i], layer[i + 1]));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

SignalId GateNetlist::or_tree(const std::vector<SignalId>& xs) {
  require(!xs.empty(), "or_tree: empty input list");
  std::vector<SignalId> layer = xs;
  while (layer.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(add(GateOp::kOr2, layer[i], layer[i + 1]));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

SignalId GateNetlist::nand_tree(const std::vector<SignalId>& xs) {
  if (xs.size() == 1) return add(GateOp::kInv, xs[0]);
  if (xs.size() == 2) return add(GateOp::kNand2, xs[0], xs[1]);
  return add(GateOp::kInv, and_tree(xs));
}

SignalId GateNetlist::xor_tree(const std::vector<SignalId>& xs) {
  require(!xs.empty(), "xor_tree: empty input list");
  SignalId acc = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) {
    acc = add(GateOp::kXor2, acc, xs[i]);
  }
  return acc;
}

SignalId GateNetlist::mux2(SignalId lo, SignalId hi, SignalId sel) {
  const SignalId nsel = add(GateOp::kInv, sel);
  const SignalId t1 = add(GateOp::kNand2, hi, sel);
  const SignalId t0 = add(GateOp::kNand2, lo, nsel);
  return add(GateOp::kNand2, t1, t0);
}

SignalId GateNetlist::d_latch(SignalId d, SignalId en) {
  const SignalId nd = add(GateOp::kInv, d);
  const SignalId s = add(GateOp::kNand2, d, en);
  const SignalId r = add(GateOp::kNand2, nd, en);
  // Cross-coupled NAND pair; q's second input patched to qbar.
  const SignalId q = add(GateOp::kNand2, s, -2);
  const SignalId qbar = add(GateOp::kNand2, r, q);
  gates_[static_cast<std::size_t>(q)].b = qbar;
  latch_feedback_.push_back({static_cast<std::size_t>(q),
                             static_cast<std::size_t>(qbar)});
  return q;
}

}  // namespace semsim
