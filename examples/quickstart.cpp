// Quickstart: build a single-electron transistor programmatically, sweep it
// with the Monte-Carlo engine, and print an I-V curve.
//
//   $ ./quickstart
//
// The device is the paper's Fig. 1 SET (R = 1 MOhm, C = 1 aF, Cg = 3 aF).
// Expect Coulomb blockade (near-zero current) for |Vds| below
// e/C_sigma = 32 mV and a quasi-linear rise above it.
#include <cstdio>

#include "analysis/sweep.h"
#include "netlist/circuit.h"

using namespace semsim;

int main() {
  // 1. Describe the circuit: two tunnel junctions around an island, plus a
  //    capacitively coupled gate.
  Circuit circuit;
  const NodeId source = circuit.add_external("source");
  const NodeId drain = circuit.add_external("drain");
  const NodeId gate = circuit.add_external("gate");
  const NodeId island = circuit.add_island("island");
  circuit.add_junction(source, island, 1e6, 1e-18);  // junction 0
  circuit.add_junction(island, drain, 1e6, 1e-18);   // junction 1
  circuit.add_capacitor(gate, island, 3e-18);
  circuit.set_source(gate, Waveform::dc(0.0));

  // 2. Configure the Monte-Carlo engine (adaptive solver on by default).
  EngineOptions options;
  options.temperature = 5.0;  // kelvin

  // 3. Sweep the bias symmetrically and measure the current by charge
  //    counting through both junctions.
  IvSweepConfig sweep;
  sweep.swept = source;
  sweep.mirror = drain;  // drain driven at -V (the paper's `symm`)
  sweep.from = -0.02;
  sweep.to = 0.02;
  sweep.step = 0.002;
  sweep.probes = {{0, 1.0}, {1, 1.0}};
  sweep.measure = CurrentMeasureConfig{2000, 20000, 8};

  // One work unit holding all 21 points, seeded from base seed 1: each
  // point warm-starts from the previous point's charge state.
  const ParallelSweepConfig chunking{/*base_seed=*/1, /*points_per_unit=*/21};

  std::printf("# Vds [V]    I [A]      (T = 5 K, Vg = 0)\n");
  for (const IvPoint& p :
       run_iv_sweep(circuit, options, sweep, ParallelExecutor(1), chunking)) {
    std::printf("%+.4f   %+.4e\n", 2.0 * p.bias, p.current);
  }
  std::printf("# Coulomb blockade: current is suppressed for |Vds| < 32 mV.\n");
  return 0;
}
