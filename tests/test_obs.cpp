// semsim_obs accumulators (src/obs/accumulator.h) against closed forms:
// iid streams must recover mean/variance with tau_int ~ 0.5, an AR(1)
// process with known phi must recover the analytic autocorrelation time.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "base/error.h"
#include "obs/accumulator.h"
#include "obs/checkpoint.h"

namespace semsim {
namespace {

// Deterministic Gaussian stream (std::mt19937_64 is bit-exact across
// platforms; normal_distribution is not, but these are statistical tests
// with wide tolerances, not bitwise ones).
std::vector<double> gaussian_stream(std::size_t n, double mu, double sigma,
                                    std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> dist(mu, sigma);
  std::vector<double> out(n);
  for (double& x : out) x = dist(gen);
  return out;
}

TEST(Binning, IidGaussianRecoversMomentsAndTauHalf) {
  const double mu = 1.5, sigma = 0.7;
  const std::size_t n = 1 << 16;
  BinningAccumulator acc;
  for (const double x : gaussian_stream(n, mu, sigma, 12345)) acc.add(x);

  ASSERT_EQ(acc.count(), n);
  const double err = sigma / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(acc.mean(), mu, 5.0 * err);
  EXPECT_NEAR(acc.variance(), sigma * sigma, 0.05 * sigma * sigma);
  EXPECT_NEAR(acc.naive_error(), err, 0.05 * err);
  // iid: the binned error must agree with the naive one (no plateau rise)
  // and tau_int must sit at the uncorrelated value 1/2.
  EXPECT_GT(acc.tau_int(), 0.3);
  EXPECT_LT(acc.tau_int(), 0.8);
  EXPECT_LT(acc.rel_error(), 2.0 * err / mu * std::sqrt(2.0 * 0.8));
}

TEST(Binning, Ar1RecoversAnalyticAutocorrelationTime) {
  // x_{k+1} = phi x_k + sqrt(1 - phi^2) xi_k has autocovariance phi^|l|,
  // giving tau_int = (1/2) (1 + phi) / (1 - phi) in this header's
  // normalization (1/2 for iid) and a true error of the mean
  // sqrt(var / N * (1 + phi) / (1 - phi)).
  const double phi = 0.9;
  const std::size_t n = 1 << 18;
  std::mt19937_64 gen(999);
  std::normal_distribution<double> dist(0.0, 1.0);
  BinningAccumulator acc;
  double x = 0.0;
  const double drive = std::sqrt(1.0 - phi * phi);
  for (std::size_t i = 0; i < n; ++i) {
    x = phi * x + drive * dist(gen);
    acc.add(x);
  }

  const double tau_true = 0.5 * (1.0 + phi) / (1.0 - phi);  // 9.5
  EXPECT_NEAR(acc.tau_int(), tau_true, 0.25 * tau_true);
  const double err_true =
      std::sqrt(acc.variance() / static_cast<double>(n) * (1.0 + phi) /
                (1.0 - phi));
  EXPECT_NEAR(acc.binned_error(), err_true, 0.25 * err_true);
  // The naive error must underestimate by ~ sqrt(2 tau): the whole point.
  EXPECT_LT(acc.naive_error(), 0.5 * acc.binned_error());
}

TEST(Binning, LevelStructureHalvesBinCounts) {
  BinningAccumulator acc;
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) acc.add(static_cast<double>(i % 7));
  ASSERT_GE(acc.level_count(), 9u);
  for (std::size_t l = 0; l < acc.level_count(); ++l) {
    EXPECT_EQ(acc.level_bins(l), n >> l) << "level " << l;
  }
}

TEST(Binning, EmptyAndDegenerateStreamsAreSafe) {
  BinningAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.binned_error(), 0.0);
  EXPECT_EQ(acc.tau_int(), 0.5);
  EXPECT_EQ(acc.rel_error(), 0.0);
  acc.add(3.0);
  EXPECT_EQ(acc.mean(), 3.0);
  EXPECT_EQ(acc.naive_error(), 0.0);  // one sample: no variance estimate
  // Exactly-zero observable with zero spread: rel_error 0, not NaN/inf.
  BinningAccumulator zeros;
  for (int i = 0; i < 256; ++i) zeros.add(0.0);
  EXPECT_EQ(zeros.rel_error(), 0.0);
}

TEST(Binning, MergeMatchesConcatenationAndIsDeterministic) {
  // Three unit streams merged in index order must reproduce the sequential
  // statistics of the concatenated stream (exactly for count, to rounding
  // for the moments), and repeating the merge must be bitwise identical.
  const auto s1 = gaussian_stream(4096, 0.3, 1.0, 1);
  const auto s2 = gaussian_stream(4096, 0.3, 1.0, 2);
  const auto s3 = gaussian_stream(4096, 0.3, 1.0, 3);

  BinningAccumulator sequential;
  for (const auto* s : {&s1, &s2, &s3}) {
    for (const double x : *s) sequential.add(x);
  }

  const auto merged_once = [&] {
    BinningAccumulator a1, a2, a3;
    for (const double x : s1) a1.add(x);
    for (const double x : s2) a2.add(x);
    for (const double x : s3) a3.add(x);
    a1.merge(a2);
    a1.merge(a3);
    return a1;
  };
  const BinningAccumulator ma = merged_once();
  const BinningAccumulator mb = merged_once();

  // Bitwise determinism of the merge itself.
  BinaryWriter wa, wb;
  ma.encode(wa);
  mb.encode(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());

  EXPECT_EQ(ma.count(), sequential.count());
  EXPECT_NEAR(ma.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(ma.variance(), sequential.variance(), 1e-9);
  // Higher binning levels lose only the dropped cross-boundary half-bins.
  EXPECT_NEAR(ma.binned_error(), sequential.binned_error(),
              0.2 * sequential.binned_error());
}

TEST(Binning, SerializationRoundTripIsExact) {
  BinningAccumulator acc;
  for (const double x : gaussian_stream(777, 2.0, 0.5, 42)) acc.add(x);
  BinaryWriter w;
  acc.encode(w);
  BinaryReader r(w.bytes());
  const BinningAccumulator back = BinningAccumulator::decode(r);
  r.require_done();

  BinaryWriter w2;
  back.encode(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(back.count(), acc.count());
  EXPECT_EQ(back.mean(), acc.mean());
  EXPECT_EQ(back.binned_error(), acc.binned_error());
  // Carries survive: adding the same next sample to both stays identical.
  BinningAccumulator a2 = back, a1 = acc;
  a1.add(1.25);
  a2.add(1.25);
  EXPECT_EQ(a1.mean(), a2.mean());
  EXPECT_EQ(a1.level_count(), a2.level_count());
}

TEST(Binning, DecodeRejectsCorruptLevelCount) {
  BinaryWriter w;
  w.u64(BinningAccumulator::kMaxLevels + 1);
  BinaryReader r(w.bytes());
  EXPECT_THROW(BinningAccumulator::decode(r), Error);
}

}  // namespace
}  // namespace semsim
