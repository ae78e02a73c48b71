// The perf gate's per-case record and schema tag, shared between
// perf_gate.cpp (the chain / ensemble / facade cases and the gating logic)
// and iscas_scale.cpp (the ISCAS-scale domain-decomposition cases).
//
// Schema history lives with the tag below; the baseline file is
// BENCH_hotpath.json at the repository root.
#pragma once

#include <string>

namespace semsim::bench {

// v2: adds "rates_mode" ("exact" | "fast") so fast-kernel baselines never
// gate exact runs. v3: warm (4.2 K) adaptive chain cases plus the fused
// ensemble case, and adaptive cases gate ns_per_rate_eval alongside
// events/sec. v4: ISCAS-scale cases (iscas_scale.cpp) timing the
// domain-decomposed PartitionedEngine against the solo engine on the same
// logic fabric, and every case now records "partitions" (0 = solo run).
// v5: the approximate thermal kernel is retired, so "rates_mode" and the
// two "_warm_fast" cases are gone; every other case keeps its name.
constexpr const char* kGateSchema = "semsim.bench_hotpath/v5";

struct GateCase {
  std::string name;
  int stages = 0;          ///< chain stages; 0 for facade / ISCAS cases
  bool adaptive = true;
  int partitions = 0;      ///< PartitionedEngine clusters; 0 = solo engine
  double events_per_sec = 0.0;
  double ns_per_rate_eval = 0.0;
  double flagged_fraction = -1.0;  ///< < 0: not applicable (non-adaptive)
};

}  // namespace semsim::bench
