// Unit tests for the foundation library: RNG, Fenwick tree, stable math
// helpers, string/number parsing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>

#include "base/constants.h"
#include "base/error.h"
#include "base/fenwick.h"
#include "base/math_util.h"
#include "base/random.h"
#include "base/string_util.h"

namespace semsim {
namespace {

// ---- constants --------------------------------------------------------------

TEST(Constants, ResistanceQuantumMatchesPaperValue) {
  // Paper: R_Q = h / 4e^2 ~ 6.5 kOhm.
  EXPECT_NEAR(kResistanceQuantumSc, 6453.0, 2.0);
}

TEST(Constants, HbarConsistentWithPlanck) {
  EXPECT_NEAR(kHbar * 2.0 * M_PI, kPlanck, 1e-40);
}

// ---- Xoshiro256 -------------------------------------------------------------

TEST(Random, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Random, Uniform01InHalfOpenRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, Uniform01OpenLowNeverZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01_open_low();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Random, Uniform01MeanAndVariance) {
  Xoshiro256 rng(99);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.002);
}

TEST(Random, UniformBelowIsInRangeAndRoughlyUniform) {
  Xoshiro256 rng(3);
  std::map<std::uint64_t, int> hist;
  const std::uint64_t n = 7;
  for (int i = 0; i < 70000; ++i) {
    const std::uint64_t v = rng.uniform_below(n);
    ASSERT_LT(v, n);
    ++hist[v];
  }
  for (const auto& [k, c] : hist) EXPECT_NEAR(c, 10000, 500) << "bucket " << k;
}

TEST(Random, ReseedReproducesStream) {
  Xoshiro256 rng(5);
  const auto x1 = rng();
  rng.reseed(5);
  EXPECT_EQ(rng(), x1);
}

TEST(Random, ExponentialWaitingTimeMeanMatchesRate) {
  Xoshiro256 rng(11);
  const double rate = 2.5e9;
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(exponential_waiting_time(rng, rate));
  EXPECT_NEAR(s.mean() * rate, 1.0, 0.01);
}

TEST(Random, ExponentialWaitingTimeInfiniteForZeroRate) {
  Xoshiro256 rng(11);
  EXPECT_TRUE(std::isinf(exponential_waiting_time(rng, 0.0)));
  EXPECT_TRUE(std::isinf(exponential_waiting_time(rng, -1.0)));
}

// ---- FenwickTree ------------------------------------------------------------

TEST(Fenwick, TotalTracksSetValues) {
  FenwickTree t(5);
  t.set(0, 1.0);
  t.set(3, 2.5);
  t.set(4, 0.5);
  EXPECT_DOUBLE_EQ(t.total(), 4.0);
  t.set(3, 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 1.5);
}

TEST(Fenwick, PrefixSums) {
  FenwickTree t(4);
  for (std::size_t i = 0; i < 4; ++i) t.set(i, static_cast<double>(i + 1));
  EXPECT_DOUBLE_EQ(t.prefix_sum(0), 0.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(1), 1.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(3), 6.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(4), 10.0);
}

TEST(Fenwick, SampleRespectsWeights) {
  FenwickTree t(4);
  t.set(0, 0.0);
  t.set(1, 1.0);
  t.set(2, 0.0);
  t.set(3, 3.0);
  // Targets map deterministically to channels.
  EXPECT_EQ(t.sample(0.5), 1u);
  EXPECT_EQ(t.sample(1.5), 3u);
  EXPECT_EQ(t.sample(3.9), 3u);
}

TEST(Fenwick, SampleStatisticsMatchWeights) {
  FenwickTree t(3);
  t.set(0, 1.0);
  t.set(1, 2.0);
  t.set(2, 7.0);
  Xoshiro256 rng(17);
  int hits[3] = {0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++hits[t.sample(rng.uniform01() * t.total())];
  }
  EXPECT_NEAR(hits[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(hits[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(hits[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(Fenwick, SetAllMatchesIndividualSets) {
  FenwickTree a(6), b(6);
  const std::vector<double> w = {0.5, 0.0, 3.0, 1.25, 0.0, 2.0};
  for (std::size_t i = 0; i < w.size(); ++i) a.set(i, w[i]);
  b.set_all(w);
  EXPECT_DOUBLE_EQ(a.total(), b.total());
  for (std::size_t i = 0; i <= w.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.prefix_sum(i), b.prefix_sum(i));
  }
}

TEST(Fenwick, RejectsNegativeWeightAndBadIndex) {
  FenwickTree t(3);
  EXPECT_THROW(t.set(0, -1.0), Error);
  EXPECT_THROW(t.set(3, 1.0), Error);
}

TEST(Fenwick, ExactTotalSquashesDrift) {
  FenwickTree t(100);
  Xoshiro256 rng(4);
  for (int iter = 0; iter < 10000; ++iter) {
    t.set(rng.uniform_below(100), rng.uniform01() * 1e9);
  }
  EXPECT_NEAR(t.total(), t.exact_total(), 1e-3 * t.exact_total() + 1e-9);
}

TEST(Fenwick, ClearedTotalKeepsARoundingResidue) {
  // Weights set and cleared again: every value is back to 0, but the
  // incremental tree sums do not cancel exactly. Only a scan of the values
  // (exact_total) says the tree is empty; Engine::has_open_channel and the
  // partitioned runner's exhaustion test rely on it.
  FenwickTree t(3);
  t.set(0, 0.1);
  t.set(1, 0.2);
  t.set(2, 0.3);
  for (std::size_t i = 0; i < 3; ++i) t.set(i, 0.0);
  EXPECT_NE(t.total(), 0.0);
  EXPECT_EQ(t.exact_total(), 0.0);
  t.rebuild();
  EXPECT_EQ(t.total(), 0.0);
}

// ---- math_util --------------------------------------------------------------

/// Out-of-line replica of x_over_expm1 exactly as it lived in math_util.cpp
/// before the move into the header. The move is only legal if it cannot
/// change a single output bit (golden trajectories hash rates bitwise), so
/// we keep a sealed copy the optimizer cannot merge with the inline one and
/// compare them across the whole branch structure.
[[gnu::noinline]] double x_over_expm1_outofline(double x) noexcept {
  if (x == 0.0) return 1.0;
  if (std::abs(x) < 1e-8) return 1.0 - 0.5 * x;  // series, avoids 0/0 noise
  if (x > 700.0) return 0.0;                     // exp overflow guard
  if (x < -700.0) return -x;                     // exp(x) ~ 0
  return x / std::expm1(x);
}

TEST(MathUtil, XOverExpm1EdgeCasesExact) {
  // Exact zero hits the dedicated branch, not the series.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(0.0)),
            std::bit_cast<std::uint64_t>(1.0));
  // Series region: the result is exactly 1 - x/2 (no expm1 call).
  for (double x : {1e-9, -1e-9, 5e-12, -5e-12, 9.999e-9, -9.999e-9}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(x)),
              std::bit_cast<std::uint64_t>(1.0 - 0.5 * x))
        << "x = " << x;
  }
  // Threshold neighbourhood: 1e-8 itself is NOT in the series region.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(1e-8)),
            std::bit_cast<std::uint64_t>(1e-8 / std::expm1(1e-8)));
  // Overflow guards.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(700.0000001)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(-700.0000001)),
            std::bit_cast<std::uint64_t>(700.0000001));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(1e308)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(-1e308)),
            std::bit_cast<std::uint64_t>(1e308));
}

TEST(MathUtil, XOverExpm1BitwiseEqualsOutOfLineVersion) {
  // Deterministic sweep over every branch: dense small-x grid, the general
  // region over many decades (both signs), and the clamp regions.
  std::vector<double> xs = {0.0, 1e-8, -1e-8, 700.0, -700.0, 700.5, -700.5};
  for (int e = -320; e <= 2; ++e) {
    for (double m : {1.0, 1.37, 9.99}) {
      const double x = m * std::pow(10.0, e);
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  for (double x : xs) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(x)),
              std::bit_cast<std::uint64_t>(x_over_expm1_outofline(x)))
        << "x = " << x;
  }
  Xoshiro256 rng(123);
  for (int i = 0; i < 100000; ++i) {
    const double x = (2.0 * rng.uniform01() - 1.0) * 1500.0;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x_over_expm1(x)),
              std::bit_cast<std::uint64_t>(x_over_expm1_outofline(x)))
        << "x = " << x;
  }
}

TEST(MathUtil, XOverExpm1Limits) {
  EXPECT_DOUBLE_EQ(x_over_expm1(0.0), 1.0);
  EXPECT_NEAR(x_over_expm1(1e-10), 1.0, 1e-9);
  EXPECT_NEAR(x_over_expm1(1.0), 1.0 / (std::exp(1.0) - 1.0), 1e-12);
  EXPECT_DOUBLE_EQ(x_over_expm1(800.0), 0.0);
  EXPECT_DOUBLE_EQ(x_over_expm1(-800.0), 800.0);
  // Large negative x: x/(exp(x)-1) -> -x.
  EXPECT_NEAR(x_over_expm1(-50.0), 50.0, 1e-9);
}

TEST(MathUtil, XOverExpm1DetailedBalance) {
  // x/(e^x-1) satisfies f(-x) = f(x) * e^x.
  for (double x : {0.1, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(x_over_expm1(-x), x_over_expm1(x) * std::exp(x), 1e-9 * x_over_expm1(-x));
  }
}

TEST(MathUtil, FermiBasicShape) {
  const double kt = 1.0;
  EXPECT_DOUBLE_EQ(fermi(0.0, kt), 0.5);
  EXPECT_NEAR(fermi(-100.0, kt), 1.0, 1e-12);
  EXPECT_NEAR(fermi(100.0, kt), 0.0, 1e-12);
  EXPECT_NEAR(fermi(1.0, kt) + fermi(-1.0, kt), 1.0, 1e-12);
}

TEST(MathUtil, FermiZeroTemperatureIsStep) {
  EXPECT_DOUBLE_EQ(fermi(-1e-20, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fermi(1e-20, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fermi(0.0, 0.0), 0.5);
}

TEST(MathUtil, FermiBlockingProductMatchesDirect) {
  const double kt = 2.0;
  for (double e : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    for (double de : {-3.0, 0.0, 3.0}) {
      const double direct = fermi(e, kt) * (1.0 - fermi(e + de, kt));
      EXPECT_NEAR(fermi_blocking_product(e, de, kt), direct, 1e-14);
    }
  }
}

/// Out-of-line replica of fermi exactly as it lived in math_util.cpp before
/// the move into the header and the x < -37 branch. The branch skips exp()
/// for the quasi-particle integrand; it is only legal if it cannot change a
/// single output bit, because the golden SSET trajectories hash the rates
/// built from it.
[[gnu::noinline]] double fermi_outofline(double e, double kt) noexcept {
  if (kt <= 0.0) {
    if (e < 0.0) return 1.0;
    if (e > 0.0) return 0.0;
    return 0.5;
  }
  const double x = e / kt;
  if (x > 700.0) return 0.0;
  if (x < -700.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

TEST(MathUtil, FermiBitwiseEqualsOutOfLineVersion) {
  // x = e / kT. Inside [-700, 700] both must equal 1 / (1 + exp(x)) bit for
  // bit; outside, the shared clamps. At kT = 1 the division is exact; at
  // the 50 mK kT in joules it rounds the way the integrand's does.
  std::size_t checked = 0;
  std::size_t bad = 0;
  double first_bad = 0.0;
  const auto check = [&](double x) {
    for (const double kt : {1.0, kBoltzmann * 0.05}) {
      const double e = x * kt;
      const double got = fermi(e, kt);
      bool same = std::bit_cast<std::uint64_t>(got) ==
                  std::bit_cast<std::uint64_t>(fermi_outofline(e, kt));
      const double y = e / kt;
      if (y >= -700.0 && y <= 700.0) {
        same = same && std::bit_cast<std::uint64_t>(got) ==
                           std::bit_cast<std::uint64_t>(1.0 / (1.0 + std::exp(y)));
      }
      ++checked;
      if (!same && bad++ == 0) first_bad = x;
    }
  };
  // All of [-800, 800] in steps of 2^-6.
  for (int i = -800 * 64; i <= 800 * 64; ++i) check(i / 64.0);
  // Through the skip threshold: [-37.5, -36] in steps of 2^-18 ...
  for (int i = 0; i <= 3 << 17; ++i) check(-37.5 + i / 262144.0);
  // ... and ulp by ulp across x = -37 and across ln(2^-53) = -36.7368...,
  // where 1 + exp(x) first rounds to exactly 1.
  for (const double centre : {-37.0, -53.0 * std::log(2.0)}) {
    double x = centre;
    for (int i = 0; i < 4096; ++i) x = std::nextafter(x, -100.0);
    for (int i = 0; i < 8192; ++i, x = std::nextafter(x, 0.0)) check(x);
  }
  EXPECT_EQ(bad, 0u) << "of " << checked << " points; first at x = "
                     << first_bad;
}

TEST(MathUtil, LerpOnGrid) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(lerp_on_grid(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(lerp_on_grid(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(lerp_on_grid(xs, ys, -1.0), 0.0);   // clamps
  EXPECT_DOUBLE_EQ(lerp_on_grid(xs, ys, 3.0), 40.0);   // clamps
}

TEST(MathUtil, RunningStatsKnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stderr_mean(), s.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(MathUtil, RunningStatsDegenerate) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

// ---- string_util ------------------------------------------------------------

TEST(StringUtil, SplitWs) {
  const auto t = split_ws("  junc\t1  2 4\t\t1e6 1e-18 ");
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0], "junc");
  EXPECT_EQ(t[5], "1e-18");
  EXPECT_TRUE(split_ws("   \t ").empty());
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtil, ParseSpiceNumberPlain) {
  EXPECT_DOUBLE_EQ(parse_spice_number("1e-18"), 1e-18);
  EXPECT_DOUBLE_EQ(parse_spice_number("-0.02"), -0.02);
  EXPECT_DOUBLE_EQ(parse_spice_number("3"), 3.0);
}

TEST(StringUtil, ParseSpiceNumberSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("210k"), 210e3);
  EXPECT_DOUBLE_EQ(parse_spice_number("3a"), 3e-18);
  EXPECT_DOUBLE_EQ(parse_spice_number("110A"), 110e-18);
  EXPECT_DOUBLE_EQ(parse_spice_number("5m"), 5e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5u"), 2.5e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1.5n"), 1.5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("4p"), 4e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("9f"), 9e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("1t"), 1e12);
}

TEST(StringUtil, ParseSpiceNumberErrors) {
  EXPECT_THROW(parse_spice_number(""), ParseError);
  EXPECT_THROW(parse_spice_number("abc"), ParseError);
  EXPECT_THROW(parse_spice_number("1x"), ParseError);
  EXPECT_THROW(parse_spice_number("1megx"), ParseError);
}

TEST(StringUtil, CommentDetection) {
  EXPECT_TRUE(is_comment_or_blank("# comment"));
  EXPECT_TRUE(is_comment_or_blank("* spice comment"));
  EXPECT_TRUE(is_comment_or_blank("  // c++ style"));
  EXPECT_TRUE(is_comment_or_blank("   "));
  EXPECT_FALSE(is_comment_or_blank("junc 1 2 3"));
}

}  // namespace
}  // namespace semsim
