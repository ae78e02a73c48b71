// Charge-counting statistics from the Monte-Carlo engine.
//
// A Monte-Carlo trajectory carries the full counting statistics of the
// transport process — information a steady-state master equation discards.
// The classic observable is the Fano factor F = Var(N)/|<N>| of the charge
// N transmitted through a junction per time window: F = 1 for Poissonian
// transport (e.g. cotunneling deep in blockade), F = 1/2 for a symmetric
// two-state SET cycle (the textbook shot-noise suppression), and
// (G_a^2 + G_b^2)/(G_a + G_b)^2 in general for a two-state cycle.
#pragma once

#include <cstdint>

#include "core/engine.h"

namespace semsim {

struct FanoEstimate {
  double fano = 0.0;          ///< Var(N) / |mean(N)| over the windows
  double mean_per_window = 0.0;  ///< mean transmitted charge [e] per window
  double current = 0.0;       ///< implied mean current [A]
  unsigned windows = 0;       ///< windows actually measured
};

struct FanoConfig {
  std::size_t junction = 0;
  double window_time = 0.0;   ///< [s]; must be >> 1/rates for F to converge
  unsigned windows = 200;
  std::uint64_t warmup_events = 2000;
};

/// Runs the engine in place. Every window is measured: a stuck engine still
/// lets time pass, so each of its windows counts zero charge.
FanoEstimate measure_fano(Engine& engine, const FanoConfig& cfg);

}  // namespace semsim
