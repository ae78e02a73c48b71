// The 15 logic benchmarks of the paper's evaluation (Sec. IV-B, Fig. 6/7).
//
// The 74-series MSI parts, the full adder, the decoder and the ISCAS'89
// sequential cores (s27a, s208-1) are structural gate-level models built
// from this library's 2-input gate set; their junction counts therefore
// differ somewhat from the paper's (which used an unavailable SET mapping).
// The four large ISCAS'85 circuits are replaced by seeded random logic DAGs
// elaborated to exactly the paper's junction counts, with an embedded
// inverter chain as the sensitized delay path (see DESIGN.md,
// "Substitutions"). Sequential circuits are handled the standard way for
// delay analysis: state bits become extra primary inputs and the next-state
// functions drive transparent D-latches.
#pragma once

#include <string>
#include <vector>

#include "logic/gate_netlist.h"

namespace semsim {

/// A benchmark plus its Fig. 7 delay-experiment specification.
struct LogicBenchmark {
  std::string name;
  GateNetlist netlist;
  std::size_t paper_junctions = 0;  ///< the count printed in the paper
  // Delay experiment: toggle one input, observe one output.
  std::size_t toggle_input = 0;    ///< index into netlist.inputs()
  std::vector<bool> base_vector;   ///< pre-step input values
  std::size_t observe_output = 0;  ///< index into netlist.outputs()
};

/// True when toggling the benchmark's toggle_input from its base vector
/// flips the observed output (checked with GateNetlist::evaluate).
bool is_sensitized(const LogicBenchmark& b);

/// All 15 benchmarks, ordered smallest to largest as in Fig. 6.
std::vector<LogicBenchmark> make_all_benchmarks();

/// One benchmark by paper name ("full-adder", "c1908", ...). Throws Error
/// for unknown names.
LogicBenchmark make_benchmark(const std::string& name);

}  // namespace semsim
