// Orthodox-theory single-electron tunnel rate (paper Eq. 1, normal state).
//
// Sign convention used across SEMSIM: `delta_w` is the free-energy CHANGE of
// the whole circuit, F_after - F_before. Energetically favourable events have
// delta_w < 0. The orthodox rate is then
//
//     Gamma(delta_w) = (1 / e^2 R) * (-delta_w) / (1 - exp(delta_w / kT))
//                    = (1 / e^2 R) *   delta_w  / (exp(delta_w / kT) - 1)
//
// which is exactly the paper's Eq. 1 with I(V) = V/R. Limits:
//     T -> 0            : max(-delta_w, 0) / (e^2 R)
//     delta_w -> 0, T>0 : kT / (e^2 R)
//     delta_w >> kT     : exponentially suppressed but non-zero (detailed
//                         balance: Gamma(x) = exp(-x/kT) * Gamma(-x)).
//
// The batched kernels below evaluate whole channel arrays at once for the
// Monte-Carlo hot path: the engine maintains per-channel delta_w[] and
// conductance[] contiguously (SoA), so one call covers every channel with a
// chunked, autovectorization-friendly loop instead of a call per channel.
#pragma once

#include <bit>
#include <cstddef>
#include <limits>

#include "base/math_util.h"

namespace semsim {

/// Orthodox tunnel rate [1/s]. `resistance` in ohms, `temperature` in kelvin,
/// `delta_w` in joules. Preconditions: resistance > 0, temperature >= 0.
double orthodox_rate(double delta_w, double resistance,
                     double temperature) noexcept;

/// Batched orthodox rates: out[i] = Gamma(delta_w[i]) for n channels.
/// `conductance[i]` must be 1 / (e^2 R_i) and `kt` = k_B * T [J]; kt <= 0
/// selects the T = 0 limit. BITWISE CONTRACT: out[i] is identical, bit for
/// bit, to orthodox_rate(delta_w[i], R_i, T) — same expression forms, same
/// x_over_expm1 branches — because golden trajectories hash the sampled
/// waiting times, which depend on every rate bit. The T = 0 loop (max + mul)
/// autovectorizes; the thermal loop is bound by libm expm1 and stays scalar.
void tunnel_rates_batch(const double* delta_w, const double* conductance,
                        double kt, double* out, std::size_t n) noexcept;

/// One channel's memo of the exact thermal kernel: the last four distinct
/// free-energy changes the channel evaluated and their rates, newest
/// first, in one 64-byte line. A new line is empty: its slots hold a NaN
/// ΔW, which compares unequal to every ΔW, so they never match.
struct alignas(64) RateMemoLine {
  static constexpr double kEmpty = std::numeric_limits<double>::quiet_NaN();
  double dw[4] = {kEmpty, kEmpty, kEmpty, kEmpty};
  double rate[4] = {};
};

/// The exact thermal rate kt * x_over_expm1(delta_w / kt) * g of one
/// channel through its memo line (kt > 0). A ΔW equal (==) to a stored one
/// returns the stored rate and counts a hit in `hits`. Equality identifies
/// the bit pattern but for the sign of zero, and x_over_expm1 is 1 at
/// both zeros, so a hit returns exactly the bits the kernel would; a NaN
/// equals nothing and is always evaluated. A miss evaluates the kernel,
/// stores the pair in front and drops the oldest (FIFO).
inline double memo_thermal_rate(RateMemoLine& line, double delta_w,
                                double kt, double g,
                                std::size_t& hits) noexcept {
  const unsigned match = static_cast<unsigned>(line.dw[0] == delta_w) |
                         static_cast<unsigned>(line.dw[1] == delta_w) << 1 |
                         static_cast<unsigned>(line.dw[2] == delta_w) << 2 |
                         static_cast<unsigned>(line.dw[3] == delta_w) << 3;
  if (match != 0) {
    ++hits;
    return line.rate[std::countr_zero(match)];
  }
  const double rate = kt * x_over_expm1(delta_w / kt) * g;
  for (int s = 3; s > 0; --s) {
    line.dw[s] = line.dw[s - 1];
    line.rate[s] = line.rate[s - 1];
  }
  line.dw[0] = delta_w;
  line.rate[0] = rate;
  return rate;
}

/// tunnel_rates_batch's thermal path (kt > 0) through per-channel memo
/// lines, memo[i] belonging to channel i: out[i] is bitwise the exact
/// kernel's. Returns the number of hits.
std::size_t tunnel_rates_batch_memo(const double* delta_w,
                                    const double* conductance, double kt,
                                    RateMemoLine* memo, double* out,
                                    std::size_t n) noexcept;

}  // namespace semsim
