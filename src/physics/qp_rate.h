// Quasi-particle tunneling rate in the superconducting state (paper Eq. 3).
//
// The rate of a quasi-particle transfer whose circuit free energy changes by
// delta_w is the golden-rule integral
//
//   Gamma(dw) = 1/(e^2 R) * Int dE n1(E) n2(E + x) f(E) [1 - f(E + x)],
//   x = -dw   (energy gained by the tunneling particle),
//
// with n1,2 the reduced BCS densities of states of the two electrodes. For
// n = 1 this reduces exactly to the orthodox normal-state rate, which the
// test suite asserts. The integrand has integrable 1/sqrt singularities at
// the four gap edges; we split the domain at every singular point and apply
// a sqrt substitution at both ends of every segment before Gauss-Legendre
// quadrature.
//
// A single evaluation costs a few thousand integrand calls, far too slow for
// the inner Monte-Carlo loop, so QuasiparticleRate also provides a tabulated
// mode: a non-uniform grid — kT/3 spacing inside the band |dw| <= 2*Delta +
// 40 kT where the rate varies exponentially on the thermal scale, geometric
// spacing outside where it is a smooth power law — with linear interpolation
// and direct-integral fallback outside the covered range.
//
// The build skips only work whose result is known exactly. An unfavourable
// rate past ~745 kT is detailed balance exp(x/kT) * Gamma(-x) with the
// exponential underflowed to exactly 0, so rate() returns +0 without the
// integral; and the Fermi factors of the integrand are exactly 1.0 below
// e/kT = -37 (base/math_util.h), so they skip their exp(). Every table
// entry keeps its bits (the test suite holds the build to a copy of the
// unskipped code, memcmp-equal). A built table is read-only, so the engines
// of one run share one (core/engine.h, build_qp_table).
#pragma once

#include <vector>

namespace semsim {

class QuasiparticleRate {
 public:
  struct Params {
    double resistance = 0.0;   ///< normal-state junction resistance [Ohm]
    double delta1 = 0.0;       ///< gap of electrode 1 [J] (0 = normal)
    double delta2 = 0.0;       ///< gap of electrode 2 [J]
    double temperature = 0.0;  ///< [K]
  };

  explicit QuasiparticleRate(Params p);

  const Params& params() const noexcept { return p_; }

  /// Direct numerical integral [1/s].
  double rate(double delta_w) const;

  /// Builds the interpolation table covering delta_w in [w_min, w_max].
  void build_table(double w_min, double w_max);

  bool has_table() const noexcept { return !table_w_.empty(); }

  /// Tabulated rate with linear interpolation; falls back to the direct
  /// integral outside the covered range (and when no table was built).
  double rate_cached(double delta_w) const;

  /// The table's grid and rates (empty when untabulated). For tests and
  /// diagnostics.
  const std::vector<double>& table_w() const noexcept { return table_w_; }
  const std::vector<double>& table_rate() const noexcept { return table_rate_; }

  /// True when this object holds the table build_table(w_min, w_max) gives
  /// a rate with parameters `p`: parameters and covered range equal bit for
  /// bit, so every entry is too.
  bool tabulates(const Params& p, double w_min, double w_max) const noexcept;

 private:
  double integral(double x) const;  // x = energy gain

  Params p_;
  double kt_ = 0.0;
  std::vector<double> table_w_;     // sorted, non-uniform
  std::vector<double> table_rate_;
};

}  // namespace semsim
