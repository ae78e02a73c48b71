// Input-file example: run a simulation described in the paper's SPICE-like
// netlist format (Example Input File 1).
//
//   $ ./netlist_file                # uses the built-in paper example
//   $ ./netlist_file my_circuit.sem # or any file in the same format
//
// The embedded netlist is the paper's Example Input File 1, with the second
// junction written island->drain so that both recorded junctions share the
// source->drain current orientation.
#include <cstdio>
#include <string>

#include "analysis/api.h"

using namespace semsim;

namespace {

const char* kPaperInput = R"(
#SET component definitions (paper Example Input File 1)
junc 1 1 4 1meg 1e-18
junc 2 4 2 1meg 1e-18
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
record 1 2
jumps 20000 1
sweep 2 0.02 0.002
)";

}  // namespace

int main(int argc, char** argv) try {
  RunRequest req;
  req.input = argc > 1 ? parse_simulation_file(argv[1])
                       : parse_simulation_input(std::string(kPaperInput));
  req.seed = 1;
  const SimulationInput& input = req.input;

  std::printf("# parsed: %zu nodes, %zu junctions, T = %.2f K%s\n",
              input.circuit.node_count(), input.circuit.junction_count(),
              input.temperature, input.cotunneling ? ", cotunneling on" : "");

  const DriverResult r = run(req).driver;
  if (input.sweep) {
    std::printf("# sweeping node %d from %g to %g V (step %g)\n",
                input.sweep->source, -input.sweep->max, input.sweep->max,
                input.sweep->step);
    std::printf("# V_swept    I [A]\n");
    for (const IvPoint& p : r.sweep) {
      std::printf("%+.5f   %+.4e\n", p.bias, p.current);
    }
  } else {
    std::printf("I = %.4e A +- %.1e (over %llu tunnel events)\n",
                r.current->mean, r.current->stderr_mean,
                static_cast<unsigned long long>(r.events));
  }
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "netlist_file: %s\n", e.what());
  return 1;
}
