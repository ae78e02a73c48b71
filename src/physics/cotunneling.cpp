#include "physics/cotunneling.h"

#include <algorithm>
#include <cmath>

#include "base/constants.h"
#include "base/math_util.h"

namespace semsim {

double cotunneling_thermal_factor(double x, double temperature) noexcept {
  if (temperature <= 0.0) {
    return x > 0.0 ? x * x * x : 0.0;
  }
  const double kt = kBoltzmann * temperature;
  const double two_pi_kt = 6.283185307179586 * kt;
  // x / (1 - exp(-x/kT)) = kT * x_over_expm1(-x/kT)
  const double thermal = kt * x_over_expm1(-x / kt);
  return (x * x + two_pi_kt * two_pi_kt) * thermal;
}

double cotunneling_rate(double dw_total, double e1, double e2, double r1,
                        double r2, double temperature) noexcept {
  if (e1 <= 0.0 || e2 <= 0.0) return 0.0;
  const double x = -dw_total;
  const double s = cotunneling_thermal_factor(x, temperature);
  if (s == 0.0) return 0.0;
  const double inv_e = 1.0 / e1 + 1.0 / e2;
  const double e4 = kElementaryCharge * kElementaryCharge *
                    kElementaryCharge * kElementaryCharge;
  return kHbar / (12.0 * 3.141592653589793 * e4 * r1 * r2) * inv_e * inv_e * s;
}

std::vector<CotunnelingPath> enumerate_cotunneling_paths(const Circuit& c) {
  std::vector<CotunnelingPath> paths;
  for (const NodeId via : c.islands()) {
    const std::vector<std::size_t>& incident = c.junctions_of(via);
    for (std::size_t a : incident) {
      for (std::size_t b : incident) {
        if (a == b) continue;
        const Junction& ja = c.junction(a);
        const Junction& jb = c.junction(b);
        const NodeId from = ja.a == via ? ja.b : ja.a;
        const NodeId to = jb.a == via ? jb.b : jb.a;
        if (from == to) continue;  // no net transfer
        paths.push_back(CotunnelingPath{a, b, from, via, to});
      }
    }
  }
  return paths;
}

}  // namespace semsim
