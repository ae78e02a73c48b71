#include "physics/rates.h"

#include <algorithm>

#include "base/constants.h"
#include "base/math_util.h"

namespace semsim {

double orthodox_rate(double delta_w, double resistance,
                     double temperature) noexcept {
  const double g = 1.0 / (kElementaryCharge * kElementaryCharge * resistance);
  if (temperature <= 0.0) {
    return std::max(-delta_w, 0.0) * g;
  }
  const double kt = kBoltzmann * temperature;
  // delta_w / (exp(delta_w/kT) - 1) = kT * x_over_expm1(delta_w / kT)
  return kt * x_over_expm1(delta_w / kt) * g;
}

void tunnel_rates_batch(const double* delta_w, const double* conductance,
                        double kt, double* out, std::size_t n) noexcept {
  if (kt <= 0.0) {
    // T = 0 limit: branch-free max + multiply, vectorizes as-is. The
    // expression must stay `std::max(-delta_w, 0.0) * g` verbatim — it can
    // produce -0.0 (max picks its first argument on ties), and the Fenwick
    // build preserves that bit pattern.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::max(-delta_w[i], 0.0) * conductance[i];
    }
    return;
  }
  // Thermal path: per-channel libm expm1 through the (now inline)
  // x_over_expm1, same expression and association as orthodox_rate.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = kt * x_over_expm1(delta_w[i] / kt) * conductance[i];
  }
}

std::size_t tunnel_rates_batch_memo(const double* delta_w,
                                    const double* conductance, double kt,
                                    RateMemoLine* memo, double* out,
                                    std::size_t n) noexcept {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = memo_thermal_rate(memo[i], delta_w[i], kt, conductance[i], hits);
  }
  return hits;
}

}  // namespace semsim
