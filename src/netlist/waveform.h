// Time-dependent source waveforms.
//
// The Monte-Carlo engine treats input voltages as piecewise constant between
// "breakpoints": at each breakpoint the engine re-evaluates sources and (in
// the adaptive solver) seeds Algorithm 1 from the junctions in contact with
// the changed inputs, exactly as the paper describes for "AC signal(s)
// present". Smooth waveforms (sine) are discretized onto a configurable
// sampling interval.
//
// Edge rule: value() is constant on [b_i, b_(i+1)) for the breakpoints b_i
// that next_breakpoint() returns, and a pulse changes level at every one of
// them. So value() and next_breakpoint() derive a pulse's period index (a
// sine's sample index) and edge times from the same expressions: a phase
// computed another way (say fmod of t - delay, or floor(t / sample_dt))
// can read the old level at a rounded edge time, and the engine, which
// re-reads sources only at breakpoints, then loses the phase or re-polls
// one ulp later.
#pragma once

#include <limits>
#include <vector>

namespace semsim {

class Waveform {
 public:
  /// Constant level [V].
  static Waveform dc(double level);

  /// `low` for t < t_step, `high` afterwards.
  static Waveform step(double low, double high, double t_step);

  /// Periodic pulse train: value `high` on [delay + k*period,
  /// delay + k*period + width), `low` elsewhere (ideal edges). value() and
  /// next_breakpoint() compute both edges of a period with the same
  /// expressions, so the level toggles at every breakpoint and each period
  /// is high for `width` up to the rounding of its edges.
  static Waveform pulse(double low, double high, double delay, double width,
                        double period);

  /// Piecewise-constant from (time, value) points sorted by time; value
  /// before the first point is the first value.
  static Waveform piecewise(std::vector<double> times,
                            std::vector<double> values);

  /// offset + amplitude * sin(2*pi*freq*t), discretized at `sample_dt`.
  static Waveform sine(double offset, double amplitude, double freq,
                       double sample_dt);

  /// Source value at time t (>= 0).
  double value(double t) const noexcept;

  /// Earliest breakpoint strictly after `t`, or +inf when the waveform is
  /// constant for all future time.
  double next_breakpoint(double t) const noexcept;

  /// True for plain DC.
  bool is_dc() const noexcept { return kind_ == Kind::kDc; }

  /// Upper bound on |value(t)| over all t (used to size rate tables).
  double max_abs() const noexcept;

  /// Every number that defines the waveform: its kind, its five shape
  /// parameters, then the piecewise points (count, times, values). Equal
  /// definitions give equal values everywhere; run fingerprints hash it.
  std::vector<double> definition() const;

 private:
  enum class Kind { kDc, kStep, kPulse, kPiecewise, kSine };

  Waveform() = default;

  // The pulse's one edge rule: period k rises at delay + k*period and
  // falls at delay + (k*period + width), evaluated by these expressions
  // only. pulse_period(t) is the k with pulse_rise(k) <= t <
  // pulse_rise(k + 1), for t >= delay; the settling helper in
  // waveform.cpp writes each edge as origin + k * step, pulse_rise's own
  // expression. The sine's sample k holds on [k * sample_dt,
  // (k + 1) * sample_dt); value() and next_breakpoint() settle k against
  // those edges with the same helper.
  double pulse_rise(double k) const noexcept { return c_ + k * e_; }
  double pulse_fall(double k) const noexcept { return c_ + (k * e_ + d_); }
  double pulse_period(double t) const noexcept;

  Kind kind_ = Kind::kDc;
  double a_ = 0.0, b_ = 0.0, c_ = 0.0, d_ = 0.0, e_ = 0.0;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace semsim
