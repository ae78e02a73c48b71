// ISCAS-scale perf-gate cases: the domain-decomposed PartitionedEngine
// (core/partition.h) against the solo engine on identical multi-block
// random-logic fabrics (~1k and ~4k junctions). Compiled into perf_gate.
#pragma once

#include <vector>

#include "gate_case.h"

namespace semsim::bench {

/// Appends six cases to `cases` and prints a "#" report line per case:
///   iscas_blocks_1024          / iscas_blocks_1024_part2
///   iscas_blocks_4096          / iscas_blocks_4096_part8
///   iscas_blocks_4096_adaptive / iscas_blocks_4096_adaptive_part8
/// The 4096-junction pairs carry in-run acceptance require()s, so a
/// hollowed-out decomposition fails even a --out (baseline) run: the
/// non-adaptive 8-cluster run must reach at least 3x the solo events/sec,
/// and the adaptive one, on a 1-thread executor, at least 0.9x.
void append_iscas_cases(std::vector<GateCase>& cases);

}  // namespace semsim::bench
