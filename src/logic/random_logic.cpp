#include "logic/random_logic.h"

#include <string>

#include "base/error.h"
#include "base/random.h"

namespace semsim {

namespace {

/// Appends one random-logic block to `n`, drawing operands only from the
/// block's own signals (ids >= the entry signal_count), and returns the
/// chain output. Factored so make_random_logic (one block, base seed) and
/// make_random_logic_blocks (per-block derived streams) generate
/// identically shaped blocks from one piece of logic.
SignalId append_random_block(GateNetlist& n, const RandomLogicSpec& spec,
                             std::uint64_t seed, const std::string& prefix) {
  require(spec.target_junctions % 4 == 0,
          "make_random_logic: target must be a multiple of 4 junctions");
  require(spec.n_inputs >= 2 && spec.chain_length >= 1,
          "make_random_logic: need >= 2 inputs and a chain");

  Xoshiro256 rng(seed);
  const std::size_t base_signals = n.signal_count();
  const std::size_t base_junctions = n.junction_count();
  const std::size_t target = base_junctions + spec.target_junctions;

  std::vector<SignalId> ins;
  for (int i = 0; i < spec.n_inputs; ++i) {
    ins.push_back(n.add_input(prefix + "pi" + std::to_string(i)));
  }

  // Sensitized path: a pure inverter chain from input 0.
  SignalId chain = ins[0];
  for (int i = 0; i < spec.chain_length; ++i) {
    chain = n.add(GateOp::kInv, chain);
  }
  n.mark_output(chain);

  require(n.junction_count() <= target,
          "make_random_logic: target smaller than the embedded chain");

  // Random filler gates. Keep headroom so the final top-up with 4-junction
  // inverters can always land exactly on target.
  const GateOp kOps[] = {GateOp::kInv,  GateOp::kNand2, GateOp::kNor2,
                         GateOp::kAnd2, GateOp::kOr2,   GateOp::kXor2};
  auto random_signal = [&]() -> SignalId {
    return static_cast<SignalId>(
        base_signals + rng.uniform_below(n.signal_count() - base_signals));
  };
  while (target - n.junction_count() > 32) {
    const GateOp op = kOps[rng.uniform_below(6)];
    if (gate_junction_cost(op) + n.junction_count() > target) {
      continue;
    }
    const SignalId a = random_signal();
    if (gate_arity(op) == 2) {
      n.add(op, a, random_signal());
    } else {
      n.add(op, a);
    }
  }
  while (n.junction_count() < target) {
    n.add(GateOp::kInv, random_signal());
  }
  require(n.junction_count() == target, "make_random_logic: sizing failed");

  // A couple of extra observable outputs (most recent signals).
  n.mark_output(static_cast<SignalId>(n.signal_count() - 1));
  n.mark_output(static_cast<SignalId>(
      base_signals + (n.signal_count() - base_signals) / 2));
  return chain;
}

}  // namespace

GateNetlist make_random_logic(const RandomLogicSpec& spec) {
  GateNetlist n;
  append_random_block(n, spec, spec.seed, "");
  return n;
}

RandomLogicBlocks make_random_logic_blocks(const RandomLogicSpec& per_block,
                                           std::size_t blocks) {
  require(blocks >= 1, "make_random_logic_blocks: need >= 1 block");
  RandomLogicBlocks out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const SignalId first =
        static_cast<SignalId>(out.netlist.signal_count());
    out.chain_out.push_back(append_random_block(
        out.netlist, per_block, derive_stream_seed(per_block.seed, b),
        std::string("b").append(std::to_string(b)).append("_")));
    out.signals.emplace_back(
        first, static_cast<SignalId>(out.netlist.signal_count()));
  }
  return out;
}

}  // namespace semsim
