#include "physics/qp_rate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/constants.h"
#include "base/error.h"
#include "base/math_util.h"
#include "physics/bcs.h"

namespace semsim {
namespace {

// 20-point Gauss-Legendre nodes/weights on [-1, 1].
constexpr int kGlPoints = 20;
constexpr double kGlNode[kGlPoints] = {
    -0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
    -0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
    -0.5108670019508271, -0.3737060887154195, -0.2277858511416451,
    -0.0765265211334973,  0.0765265211334973,  0.2277858511416451,
     0.3737060887154195,  0.5108670019508271,  0.6360536807265150,
     0.7463319064601508,  0.8391169718222188,  0.9122344282513259,
     0.9639719272779138,  0.9931285991850949};
constexpr double kGlWeight[kGlPoints] = {
    0.0176140071391521, 0.0406014298003869, 0.0626720483341091,
    0.0832767415767048, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183820, 0.1491729864726037,
    0.1527533871307258, 0.1527533871307258, 0.1491729864726037,
    0.1420961093183820, 0.1316886384491766, 0.1181945319615184,
    0.1019301198172404, 0.0832767415767048, 0.0626720483341091,
    0.0406014298003869, 0.0176140071391521};

// Integrates fn over [a, b] with a sqrt substitution pinned at `a`
// (u = a + t^2 kills an inverse-sqrt singularity at a).
template <typename Fn>
double integrate_sqrt_left(Fn&& fn, double a, double b) {
  const double tmax = std::sqrt(b - a);
  double acc = 0.0;
  for (int i = 0; i < kGlPoints; ++i) {
    const double t = 0.5 * tmax * (kGlNode[i] + 1.0);
    acc += kGlWeight[i] * 2.0 * t * fn(a + t * t);
  }
  return acc * 0.5 * tmax;
}

// Same with the singularity pinned at `b` (u = b - t^2).
template <typename Fn>
double integrate_sqrt_right(Fn&& fn, double a, double b) {
  const double tmax = std::sqrt(b - a);
  double acc = 0.0;
  for (int i = 0; i < kGlPoints; ++i) {
    const double t = 0.5 * tmax * (kGlNode[i] + 1.0);
    acc += kGlWeight[i] * 2.0 * t * fn(b - t * t);
  }
  return acc * 0.5 * tmax;
}

// Integrates fn over [a, b] assuming possible integrable singularities at
// BOTH endpoints: split at the midpoint, sqrt-substitute toward each end.
template <typename Fn>
double integrate_segment(Fn&& fn, double a, double b) {
  if (!(b > a)) return 0.0;
  const double m = 0.5 * (a + b);
  return integrate_sqrt_left(fn, a, m) + integrate_sqrt_right(fn, m, b);
}

// Integrates fn over the segment [a, b] whose endpoints carry all the sharp
// structure (gap edges, Fermi steps): chunk widths grow geometrically away
// from both ends, starting at the smallest physical scale h0, so the fixed
// quadrature order resolves the integrand everywhere at O(log) cost.
template <typename Fn>
double integrate_graded(Fn&& fn, double a, double b, double h0) {
  if (!(b > a)) return 0.0;
  h0 = std::min(h0, 0.5 * (b - a));
  const double mid = 0.5 * (a + b);
  double acc = 0.0;
  // Left half: chunks a .. a+h0 .. a+3h0 .. doubling up to mid.
  double lo = a, width = h0;
  while (lo < mid) {
    const double hi = std::min(lo + width, mid);
    acc += integrate_segment(fn, lo, hi);
    lo = hi;
    width *= 2.0;
  }
  // Right half mirrored.
  double hi_edge = b;
  width = h0;
  while (hi_edge > mid) {
    const double lo_edge = std::max(hi_edge - width, mid);
    acc += integrate_segment(fn, lo_edge, hi_edge);
    hi_edge = lo_edge;
    width *= 2.0;
  }
  return acc;
}

}  // namespace

QuasiparticleRate::QuasiparticleRate(Params p) : p_(p) {
  require(p_.resistance > 0.0, "QuasiparticleRate: resistance must be > 0");
  require(p_.delta1 >= 0.0 && p_.delta2 >= 0.0,
          "QuasiparticleRate: gaps must be >= 0");
  require(p_.temperature >= 0.0,
          "QuasiparticleRate: temperature must be >= 0");
  kt_ = kBoltzmann * p_.temperature;
}

double QuasiparticleRate::integral(double x) const {
  const double d1 = p_.delta1;
  const double d2 = p_.delta2;

  // Candidate breakpoints: gap edges of both electrodes and the Fermi steps.
  std::vector<double> bp = {-d1, d1, -x - d2, -x + d2, 0.0, -x};
  const double pad = 40.0 * kt_;
  double lo = *std::min_element(bp.begin(), bp.end()) - pad;
  double hi = *std::max_element(bp.begin(), bp.end()) + pad;
  if (!(hi > lo)) return 0.0;  // T = 0 and x <= 0: empty energy window

  bp.push_back(lo);
  bp.push_back(hi);
  std::sort(bp.begin(), bp.end());
  bp.erase(std::unique(bp.begin(), bp.end(),
                       [](double a, double b) { return std::abs(a - b) < 1e-30; }),
           bp.end());

  const auto integrand = [&](double e) {
    const double n1 = d1 > 0.0 ? bcs_reduced_dos(e, d1) : 1.0;
    if (n1 == 0.0) return 0.0;
    const double n2 = d2 > 0.0 ? bcs_reduced_dos(e + x, d2) : 1.0;
    if (n2 == 0.0) return 0.0;
    const double occ = fermi_blocking_product(e, x, kt_);
    return n1 * n2 * occ;
  };

  // Smallest structure scale near the segment endpoints: the thermal width
  // of the Fermi steps, or a fraction of the gap for T = 0.
  double h0 = kt_ > 0.0 ? kt_ : 0.0;
  if (h0 == 0.0 && d1 + d2 > 0.0) h0 = (d1 + d2) / 64.0;
  if (h0 == 0.0) h0 = (hi - lo) / 64.0;

  double acc = 0.0;
  for (std::size_t s = 0; s + 1 < bp.size(); ++s) {
    const double a = std::max(bp[s], lo);
    const double b = std::min(bp[s + 1], hi);
    if (b <= a) continue;
    acc += integrate_graded(integrand, a, b, h0);
  }
  return acc / (kElementaryCharge * kElementaryCharge * p_.resistance);
}

double QuasiparticleRate::rate(double delta_w) const {
  const double x = -delta_w;  // energy gain
  if (kt_ > 0.0 && x < -40.0 * kt_) {
    // Deep in the unfavourable tail the direct integrand underflows before
    // the window is sampled; use detailed balance instead. The electrode
    // swap is a no-op because both electrodes share the circuit material.
    // Past x ~ -745 kT the Boltzmann factor underflows to exactly 0, and 0
    // times the finite, non-negative integral is exactly +0: skip it.
    const double boltzmann = std::exp(x / kt_);
    if (boltzmann == 0.0) return 0.0;
    return boltzmann * integral(-x);
  }
  return integral(x);
}

void QuasiparticleRate::build_table(double w_min, double w_max) {
  require(w_max > w_min, "QuasiparticleRate::build_table: empty range");
  const double d_sum = p_.delta1 + p_.delta2;

  // Inside the band |w| <= d_sum + 40 kT the rate varies exponentially on
  // the thermal scale (sub-gap transport, thermally excited features), so it
  // needs ~kT/3 spacing throughout. Outside, the rate is a smooth power law
  // of w and the spacing can grow geometrically.
  double band = d_sum + 40.0 * kt_;
  double dense_step = kt_ > 0.0 ? kt_ / 3.0 : 0.0;
  if (dense_step == 0.0) dense_step = d_sum > 0.0 ? d_sum / 400.0 : (w_max - w_min) / 2000.0;
  // Hard cap on table size; widening the step inside the band trades
  // accuracy for memory only in extreme (Delta >> kT) corners.
  const double min_step = (std::min(band, w_max - w_min)) * 2.0 / 40000.0;
  dense_step = std::max(dense_step, min_step);

  std::vector<double> ws;
  const double b_lo = std::max(w_min, -band);
  const double b_hi = std::min(w_max, band);
  for (double w = b_lo; w <= b_hi; w += dense_step) ws.push_back(w);
  if (ws.empty() || ws.back() < b_hi) ws.push_back(b_hi);

  const double max_step = d_sum > 0.0 ? d_sum / 8.0 : 40.0 * std::max(kt_, dense_step);
  // Geometric extension above the band.
  double step = dense_step;
  for (double w = b_hi; w < w_max;) {
    step = std::min(step * 1.3, max_step);
    w = std::min(w + step, w_max);
    ws.push_back(w);
  }
  // ... and below.
  step = dense_step;
  std::vector<double> lows;
  for (double w = b_lo; w > w_min;) {
    step = std::min(step * 1.3, max_step);
    w = std::max(w - step, w_min);
    lows.push_back(w);
  }
  ws.insert(ws.end(), lows.begin(), lows.end());

  // The rate has sharp features a uniform thermal grid cannot represent:
  // a near-discontinuous SIS threshold jump at |dw| = Delta1 + Delta2 and a
  // logarithmic singularity-matching cusp at dw = 0. Pin nodes geometrically
  // close to each feature (and an epsilon pair straddling the jump) so
  // linear interpolation is accurate on both sides.
  if (d_sum > 0.0) {
    const double eps = d_sum * 1e-9;
    const double scale = kt_ > 0.0 ? 8.0 * kt_ : d_sum / 8.0;
    for (const double c : {0.0, d_sum, -d_sum}) {
      if (c - eps > w_min && c + eps < w_max) {
        ws.push_back(c - eps);
        ws.push_back(c + eps);
      }
      for (int k = 0; k < 18; ++k) {
        const double off = scale * std::pow(2.0, -k);
        if (off <= eps) break;
        if (c + off < w_max) ws.push_back(c + off);
        if (c - off > w_min) ws.push_back(c - off);
      }
    }
  }

  std::sort(ws.begin(), ws.end());
  ws.erase(std::unique(ws.begin(), ws.end()), ws.end());

  table_w_ = std::move(ws);
  table_rate_ = std::vector<std::atomic<double>>(table_w_.size());
  for (std::atomic<double>& r : table_rate_) {
    r.store(std::numeric_limits<double>::quiet_NaN(), std::memory_order_relaxed);
  }
}

static_assert(std::atomic<double>::is_always_lock_free);

double QuasiparticleRate::entry(std::size_t i) const {
  double r = table_rate_[i].load(std::memory_order_relaxed);
  if (std::isnan(r)) {
    r = rate(table_w_[i]);
    table_rate_[i].store(r, std::memory_order_relaxed);
  }
  return r;
}

std::vector<double> QuasiparticleRate::table_rate() const {
  std::vector<double> out(table_w_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = entry(i);
  return out;
}

std::size_t QuasiparticleRate::filled_entries() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      table_rate_.begin(), table_rate_.end(), [](const std::atomic<double>& r) {
        return !std::isnan(r.load(std::memory_order_relaxed));
      }));
}

bool QuasiparticleRate::tabulates(const Params& p, double w_min,
                                  double w_max) const noexcept {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  // build_table's grid over a range around 0 spans [w_min, w_max] exactly
  // (any other table simply fails the match).
  return has_table() && same(p.resistance, p_.resistance) &&
         same(p.delta1, p_.delta1) && same(p.delta2, p_.delta2) &&
         same(p.temperature, p_.temperature) &&
         same(w_min, table_w_.front()) && same(w_max, table_w_.back());
}

double QuasiparticleRate::rate_cached(double delta_w) const {
  if (table_w_.empty() || delta_w < table_w_.front() ||
      delta_w > table_w_.back()) {
    return rate(delta_w);
  }
  struct Entries {
    const QuasiparticleRate& q;
    double operator[](std::size_t i) const { return q.entry(i); }
  };
  return lerp_on_grid(table_w_, Entries{*this}, delta_w);
}

}  // namespace semsim
