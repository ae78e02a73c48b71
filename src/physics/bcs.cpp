#include "physics/bcs.h"

#include <cmath>

namespace semsim {

double bcs_gap(double delta0, double tc, double temperature) noexcept {
  if (temperature <= 0.0) return delta0;
  if (temperature >= tc) return 0.0;
  return delta0 * std::tanh(1.74 * std::sqrt(tc / temperature - 1.0));
}

}  // namespace semsim
