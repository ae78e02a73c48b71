#include "obs/accumulator.h"

#include <cmath>
#include <limits>

#include "base/error.h"
#include "obs/checkpoint.h"

namespace semsim {

namespace {

/// Welford single-sample update.
void welford_add(BinningAccumulator::Level& lv, double x) noexcept {
  ++lv.bins;
  const double delta = x - lv.mean;
  lv.mean += delta / static_cast<double>(lv.bins);
  lv.m2 += delta * (x - lv.mean);
}

/// Chan's pairwise combination of two Welford states.
void welford_merge(BinningAccumulator::Level& a,
                   const BinningAccumulator::Level& b) noexcept {
  if (b.bins == 0) return;
  if (a.bins == 0) {
    a.bins = b.bins;
    a.mean = b.mean;
    a.m2 = b.m2;
    return;
  }
  const double na = static_cast<double>(a.bins);
  const double nb = static_cast<double>(b.bins);
  const double delta = b.mean - a.mean;
  const double n = na + nb;
  a.mean += delta * nb / n;
  a.m2 += b.m2 + delta * delta * na * nb / n;
  a.bins += b.bins;
}

}  // namespace

// ---- BinningAccumulator ----------------------------------------------------

void BinningAccumulator::add(double x) noexcept {
  double value = x;
  for (std::size_t l = 0;; ++l) {
    if (l == levels_.size()) {
      if (l >= kMaxLevels) return;  // deeper levels would never stabilize
      levels_.emplace_back();
    }
    Level& lv = levels_[l];
    welford_add(lv, value);
    if (!lv.has_carry) {
      lv.carry = value;
      lv.has_carry = true;
      return;
    }
    // Two entries complete a bin of 2^(l+1) raw samples; its mean ascends.
    lv.has_carry = false;
    value = 0.5 * (lv.carry + value);
  }
}

void BinningAccumulator::merge(const BinningAccumulator& other) {
  if (other.levels_.size() > levels_.size()) {
    levels_.resize(other.levels_.size());
  }
  for (std::size_t l = 0; l < other.levels_.size(); ++l) {
    welford_merge(levels_[l], other.levels_[l]);
    // other's pending half-bin is dropped: its partner sample was never
    // drawn, so the bin it would complete does not exist in either input.
  }
}

std::uint64_t BinningAccumulator::count() const noexcept {
  return levels_.empty() ? 0 : levels_[0].bins;
}

double BinningAccumulator::mean() const noexcept {
  return levels_.empty() ? 0.0 : levels_[0].mean;
}

double BinningAccumulator::variance() const noexcept {
  if (levels_.empty() || levels_[0].bins < 2) return 0.0;
  return levels_[0].m2 / static_cast<double>(levels_[0].bins - 1);
}

double BinningAccumulator::naive_error() const noexcept {
  if (levels_.empty() || levels_[0].bins < 2) return 0.0;
  return std::sqrt(variance() / static_cast<double>(levels_[0].bins));
}

std::uint64_t BinningAccumulator::level_bins(std::size_t l) const {
  require(l < levels_.size(), "BinningAccumulator: level out of range");
  return levels_[l].bins;
}

double BinningAccumulator::level_error(std::size_t l) const {
  require(l < levels_.size(), "BinningAccumulator: level out of range");
  const Level& lv = levels_[l];
  if (lv.bins < 2) return 0.0;
  const double var = lv.m2 / static_cast<double>(lv.bins - 1);
  return std::sqrt(var / static_cast<double>(lv.bins));
}

double BinningAccumulator::binned_error() const noexcept {
  // Deepest level whose error estimate still has acceptable
  // variance-of-variance noise; the plateau convention of ALPS-style
  // binning analyses.
  for (std::size_t l = levels_.size(); l-- > 0;) {
    if (levels_[l].bins >= kMinBinsForError) return level_error(l);
  }
  return naive_error();
}

double BinningAccumulator::tau_int() const noexcept {
  const double naive = naive_error();
  if (naive <= 0.0) return 0.5;
  const double ratio = binned_error() / naive;
  return 0.5 * ratio * ratio;
}

double BinningAccumulator::rel_error() const noexcept {
  const double err = binned_error();
  const double m = std::fabs(mean());
  if (m > 0.0) return err / m;
  return err > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

void BinningAccumulator::encode(BinaryWriter& w) const {
  w.u64(levels_.size());
  for (const Level& lv : levels_) {
    w.u64(lv.bins);
    w.f64(lv.mean);
    w.f64(lv.m2);
    w.f64(lv.carry);
    w.u8(lv.has_carry ? 1 : 0);
  }
}

BinningAccumulator BinningAccumulator::decode(BinaryReader& r) {
  BinningAccumulator acc;
  const std::uint64_t n = r.u64();
  require(n <= kMaxLevels, "BinningAccumulator: corrupt level count");
  acc.levels_.resize(n);
  for (Level& lv : acc.levels_) {
    lv.bins = r.u64();
    lv.mean = r.f64();
    lv.m2 = r.f64();
    lv.carry = r.f64();
    lv.has_carry = r.u8() != 0;
  }
  return acc;
}

}  // namespace semsim
