// BCS superconductivity helpers (paper Eq. 4 and the gap's T-dependence).
#pragma once

#include <cmath>

namespace semsim {

/// Temperature-dependent gap Delta(T) [J] from the standard interpolation
///     Delta(T) = Delta(0) * tanh(1.74 * sqrt(Tc/T - 1)),   T < Tc
/// which tracks the full BCS gap equation to better than 2% everywhere.
/// Returns 0 for T >= Tc.
double bcs_gap(double delta0, double tc, double temperature) noexcept;

/// Reduced BCS density of states N_s(E)/N(0) (Eq. 4):
///     |E| / sqrt(E^2 - Delta^2)  for |E| > Delta, else 0.
/// Diverges (integrably) at the gap edges; integration routines must split
/// the domain there (see qp_rate.cpp). Inline: the quasi-particle integrand
/// calls it twice per node.
inline double bcs_reduced_dos(double energy, double delta) noexcept {
  const double ae = std::fabs(energy);
  if (ae <= delta) return 0.0;
  return ae / std::sqrt(energy * energy - delta * delta);
}

}  // namespace semsim
