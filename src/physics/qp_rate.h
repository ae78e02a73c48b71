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
// build_table lays out only the grid. An entry is integrated by rate(w) the
// first time an interpolation reads it, so its bits do not depend on when it
// is filled, and a run pays only for the entries its free-energy changes
// bracket: 10-20 per bias point of the 11-15k points of a 50 mK default
// range. The integral skips only work whose result is known exactly. An unfavourable
// rate past ~745 kT is detailed balance exp(x/kT) * Gamma(-x) with the
// exponential underflowed to exactly 0, so rate() returns +0 without the
// integral; and the Fermi factors of the integrand are exactly 1.0 below
// e/kT = -37 (base/math_util.h), so they skip their exp(). The test suite
// holds every entry to a copy of the unskipped code, memcmp-equal.
//
// The engines of one run share one table (core/engine.h, build_qp_table)
// and may fill it concurrently: each entry is a relaxed atomic slot that
// holds NaN until filled. Two readers that race on one entry both compute
// it and store the same bits, so no lock is needed.
#pragma once

#include <atomic>
#include <cstddef>
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

  /// Lays out the interpolation grid covering delta_w in [w_min, w_max];
  /// its entries are filled on first read.
  void build_table(double w_min, double w_max);

  bool has_table() const noexcept { return !table_w_.empty(); }

  /// Tabulated rate with linear interpolation, filling the bracketing
  /// entries on first read; falls back to the direct integral outside the
  /// covered range (and when no table was built). Safe to call from
  /// several threads on one table.
  double rate_cached(double delta_w) const;

  /// The table's grid (empty when untabulated), and its rates with every
  /// entry filled first. For tests and diagnostics.
  const std::vector<double>& table_w() const noexcept { return table_w_; }
  std::vector<double> table_rate() const;

  /// How many entries have been filled so far. For tests and diagnostics.
  std::size_t filled_entries() const noexcept;

  /// True when this object holds the table build_table(w_min, w_max) gives
  /// a rate with parameters `p`: parameters and covered range equal bit for
  /// bit, so every entry is too.
  bool tabulates(const Params& p, double w_min, double w_max) const noexcept;

 private:
  double integral(double x) const;  // x = energy gain
  double entry(std::size_t i) const;  // table rate at table_w_[i]

  Params p_;
  double kt_ = 0.0;
  std::vector<double> table_w_;  // sorted, non-uniform
  // rate(table_w_[i]) once filled, NaN before; mutable because filling is
  // invisible to readers (the value is fixed by the grid).
  mutable std::vector<std::atomic<double>> table_rate_;
};

}  // namespace semsim
