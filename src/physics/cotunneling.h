// Second-order inelastic cotunneling (paper Sec. II/III-A; Fonseca et al.,
// Averin-Nazarov).
//
// Two electrons tunnel through two junctions sharing an island within one
// coherent process, leaving the island charge unchanged but transferring one
// electron across the pair. The rate for total free-energy change dw_total
// with intermediate-state costs E1, E2 (> 0; the cost of doing either single
// hop first) is
//
//   Gamma = hbar / (12 pi e^4 R1 R2) * (1/E1 + 1/E2)^2 * S(-dw_total, T)
//   S(x, T) = x (x^2 + (2 pi kT)^2) / (1 - exp(-x/kT))
//
// S -> x^3 at T = 0, reproducing the classic I ~ V^3 cotunneling current that
// the text_cotunneling_validation bench checks against SEMSIM's Monte-Carlo
// output. Following the coexistence principle, cotunneling channels are
// sampled alongside sequential events; paths whose intermediate state is
// energetically accessible (E1 <= 0 or E2 <= 0) are skipped because the
// sequential channel dominates there and the perturbative formula diverges.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/circuit.h"

namespace semsim {

/// Thermal factor S(x, T) above; `x` in joules.
double cotunneling_thermal_factor(double x, double temperature) noexcept;

/// Full cotunneling rate [1/s]. Returns 0 when e1 <= 0 or e2 <= 0.
double cotunneling_rate(double dw_total, double e1, double e2, double r1,
                        double r2, double temperature) noexcept;

/// A directed two-junction cotunneling path: an electron effectively moves
/// from `from` through island `via` to `to`, using junctions j1 (from-via)
/// then j2 (via-to). Both orders of the two hops are summed inside the rate
/// via E1/E2; each unordered pair appears once per direction.
struct CotunnelingPath {
  std::size_t j1 = 0;
  std::size_t j2 = 0;
  NodeId from = 0;
  NodeId via = 0;
  NodeId to = 0;
};

/// Enumerates every directed cotunneling path of the circuit: ordered pairs
/// of distinct junctions sharing exactly one island. O(sum_deg^2) once at
/// setup.
std::vector<CotunnelingPath> enumerate_cotunneling_paths(const Circuit& c);

}  // namespace semsim
