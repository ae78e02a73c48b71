#include "netlist/waveform.h"

#include <algorithm>
#include <cmath>

#include "base/error.h"

namespace semsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// The k with origin + k * step <= t < origin + (k + 1) * step. The quotient
// only estimates it: t - origin and the division both round, so near an
// edge it can land one step off. Settle it against the edge times
// themselves.
double settled_index(double t, double origin, double step) noexcept {
  double k = std::floor((t - origin) / step);
  if (t < origin + k * step) {
    k -= 1.0;
  } else if (t >= origin + (k + 1.0) * step) {
    k += 1.0;
  }
  return k;
}
}  // namespace

Waveform Waveform::dc(double level) {
  Waveform w;
  w.kind_ = Kind::kDc;
  w.a_ = level;
  return w;
}

Waveform Waveform::step(double low, double high, double t_step) {
  Waveform w;
  w.kind_ = Kind::kStep;
  w.a_ = low;
  w.b_ = high;
  w.c_ = t_step;
  return w;
}

Waveform Waveform::pulse(double low, double high, double delay, double width,
                         double period) {
  require(width > 0.0 && period > width, "Waveform::pulse: need 0 < width < period");
  Waveform w;
  w.kind_ = Kind::kPulse;
  w.a_ = low;
  w.b_ = high;
  w.c_ = delay;
  w.d_ = width;
  w.e_ = period;
  return w;
}

Waveform Waveform::piecewise(std::vector<double> times,
                             std::vector<double> values) {
  require(!times.empty() && times.size() == values.size(),
          "Waveform::piecewise: times/values must be non-empty and equal size");
  require(std::is_sorted(times.begin(), times.end()),
          "Waveform::piecewise: times must be sorted");
  Waveform w;
  w.kind_ = Kind::kPiecewise;
  w.times_ = std::move(times);
  w.values_ = std::move(values);
  return w;
}

Waveform Waveform::sine(double offset, double amplitude, double freq,
                        double sample_dt) {
  require(freq > 0.0 && sample_dt > 0.0,
          "Waveform::sine: freq and sample_dt must be positive");
  Waveform w;
  w.kind_ = Kind::kSine;
  w.a_ = offset;
  w.b_ = amplitude;
  w.c_ = freq;
  w.d_ = sample_dt;
  return w;
}

double Waveform::value(double t) const noexcept {
  switch (kind_) {
    case Kind::kDc:
      return a_;
    case Kind::kStep:
      return t < c_ ? a_ : b_;
    case Kind::kPulse:
      return t >= c_ && t < pulse_fall(pulse_period(t)) ? b_ : a_;
    case Kind::kPiecewise: {
      // Last point with time <= t; before the first point use values_[0].
      const auto it = std::upper_bound(times_.begin(), times_.end(), t);
      if (it == times_.begin()) return values_.front();
      return values_[static_cast<std::size_t>(it - times_.begin()) - 1];
    }
    case Kind::kSine: {
      // Sample-and-hold discretization on multiples of sample_dt.
      const double ts = settled_index(t, 0.0, d_) * d_;
      return a_ + b_ * std::sin(6.283185307179586 * c_ * ts);
    }
  }
  return a_;
}

double Waveform::pulse_period(double t) const noexcept {
  return settled_index(t, c_, e_);
}

double Waveform::max_abs() const noexcept {
  switch (kind_) {
    case Kind::kDc:
      return std::abs(a_);
    case Kind::kStep:
    case Kind::kPulse:
      return std::max(std::abs(a_), std::abs(b_));
    case Kind::kPiecewise: {
      double m = 0.0;
      for (double v : values_) m = std::max(m, std::abs(v));
      return m;
    }
    case Kind::kSine:
      return std::abs(a_) + std::abs(b_);
  }
  return std::abs(a_);
}

std::vector<double> Waveform::definition() const {
  std::vector<double> d = {static_cast<double>(kind_), a_, b_, c_, d_, e_,
                           static_cast<double>(times_.size())};
  d.insert(d.end(), times_.begin(), times_.end());
  d.insert(d.end(), values_.begin(), values_.end());
  return d;
}

double Waveform::next_breakpoint(double t) const noexcept {
  switch (kind_) {
    case Kind::kDc:
      return kInf;
    case Kind::kStep:
      return t < c_ ? c_ : kInf;
    case Kind::kPulse: {
      if (t < c_) return c_;
      const double k = pulse_period(t);
      const double fall = pulse_fall(k);
      return t < fall ? fall : pulse_rise(k + 1.0);
    }
    case Kind::kPiecewise: {
      const auto it = std::upper_bound(times_.begin(), times_.end(), t);
      return it == times_.end() ? kInf : *it;
    }
    case Kind::kSine:
      return (settled_index(t, 0.0, d_) + 1.0) * d_;
  }
  return kInf;
}

}  // namespace semsim
