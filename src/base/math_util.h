// Numerically careful helpers shared by the physics models.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace semsim {

/// x / (exp(x) - 1), the Bose-like factor in the orthodox tunnel rate,
/// evaluated stably across the full range:
///   x -> 0   : 1 - x/2 + O(x^2)  (series; expm1 underflows gracefully)
///   x -> +inf: -> 0 exponentially
///   x -> -inf: -> -x
/// Inline so the batched rate kernel (physics/rates) evaluates it without a
/// cross-TU call per channel. The branch thresholds and expression forms are
/// pinned: golden trajectories hash the resulting rates bitwise, and the
/// series term `1.0 - 0.5 * x` is immune to FMA contraction (0.5 * x is
/// exact), so inlining cannot change any bit.
inline double x_over_expm1(double x) noexcept {
  if (x == 0.0) return 1.0;
  if (std::abs(x) < 1e-8) return 1.0 - 0.5 * x;  // series, avoids 0/0 noise
  if (x > 700.0) return 0.0;                     // exp overflow guard
  if (x < -700.0) return -x;                     // exp(x) ~ 0
  return x / std::expm1(x);
}

/// Fermi-Dirac occupation f(e) = 1 / (1 + exp(e / kT)) with overflow-safe
/// evaluation; `kt` is k_B * T in the same units as `e`. kt == 0 gives the
/// step function (value 0.5 exactly at e == 0). Below x = e/kT = -37,
/// exp(x) < 2^-53 is less than half an ulp of 1, so 1 + exp(x) rounds to
/// exactly 1 and the quotient is exactly 1.0: that branch skips the exp()
/// without changing a bit. Inline, like x_over_expm1, so the
/// quasi-particle integrand (physics/qp_rate) evaluates it without a
/// cross-TU call.
inline double fermi(double e, double kt) noexcept {
  if (kt <= 0.0) {
    if (e < 0.0) return 1.0;
    if (e > 0.0) return 0.0;
    return 0.5;
  }
  const double x = e / kt;
  if (x > 700.0) return 0.0;
  if (x < -37.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

/// f(e) * (1 - f(e + de)) integrated kernel helper: evaluates
/// f(e, kt) * (1 - f(e + de, kt)) without catastrophic cancellation.
inline double fermi_blocking_product(double e, double de, double kt) noexcept {
  // 1 - f(y) == f(-y); products of two Fermi functions are well conditioned.
  return fermi(e, kt) * fermi(-(e + de), kt);
}

/// Linear interpolation on a strictly increasing grid. Clamps outside the
/// range. `ys[i]` is the value at `xs[i]`: a vector, or any type whose
/// operator[] yields it, such as the quasi-particle table's on-demand
/// entries (physics/qp_rate). Reads only the one or two entries it needs.
/// `xs` must have size >= 2 and `ys` as many entries.
template <typename Ys>
double lerp_on_grid(const std::vector<double>& xs, const Ys& ys, double x) {
  if (xs.empty()) return 0.0;
  if (x <= xs.front()) return ys[0];
  if (x >= xs.back()) return ys[xs.size() - 1];
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  const double y_lo = ys[lo];
  return y_lo + t * (ys[hi] - y_lo);
}

/// Relative difference |a-b| / max(|a|, |b|, floor).
double rel_diff(double a, double b, double floor = 1e-300) noexcept;

/// Simple running statistics (Welford) for means and standard deviations of
/// Monte-Carlo observables.
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderr_mean() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace semsim
