// Streaming Monte-Carlo observable accumulators (semsim_obs).
//
// Monte-Carlo samples along one Markov trajectory are correlated, so the
// naive standard error sqrt(var/N) underestimates the true uncertainty by
// a factor sqrt(2 * tau_int). The standard production-MC answer (ALPS-style
// logarithmic binning) is implemented here in streaming form:
//
//   * level 0 holds the raw samples x_1 .. x_N;
//   * level l holds the means of 2^l consecutive samples (each level keeps
//     only count / running mean / M2, plus one pending half-bin, so memory
//     is O(log N) regardless of stream length);
//   * the error estimate at level l, err_l = sqrt(var_l / n_l), grows with
//     l until the bin size exceeds the autocorrelation time and then
//     plateaus. The plateau value is the autocorrelation-aware error, and
//     tau_int = 0.5 * (err_binned / err_naive)^2  (0.5 for iid data).
//
// Accumulators are mergeable: parallel work units each fill a private
// accumulator and the caller merges them IN UNIT-INDEX ORDER on one thread,
// which keeps every statistic bitwise independent of the worker count (the
// same contract as base/thread_pool.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semsim {

class BinaryReader;
class BinaryWriter;

/// Logarithmic-binning accumulator for one scalar observable.
class BinningAccumulator {
 public:
  /// One binning level: Welford statistics over the completed bins of
  /// 2^level consecutive samples, plus at most one half-filled bin.
  struct Level {
    std::uint64_t bins = 0;  ///< completed bins accumulated at this level
    double mean = 0.0;       ///< running mean of the bin means
    double m2 = 0.0;         ///< Welford M2 of the bin means
    double carry = 0.0;      ///< pending half-bin value
    bool has_carry = false;
  };

  /// Levels deeper than this are never created (2^48 samples ~ centuries
  /// of event generation; the cap bounds serialized size).
  static constexpr std::size_t kMaxLevels = 48;
  /// Minimum completed bins for a level's error estimate to be trusted by
  /// binned_error(); below that, variance-of-variance noise dominates.
  static constexpr std::uint64_t kMinBinsForError = 64;

  void add(double x) noexcept;

  /// Folds `other` into this accumulator. Per level the completed-bin
  /// statistics combine exactly (Chan's parallel Welford update); `other`'s
  /// pending half-bins are dropped (at most one partial bin per level — the
  /// cross-boundary pairings they would form do not exist in either input).
  /// Merging in a fixed order is deterministic: the result depends only on
  /// the operand sequence, never on thread scheduling.
  void merge(const BinningAccumulator& other);

  std::uint64_t count() const noexcept;
  double mean() const noexcept;
  /// Sample variance of the raw (level-0) samples; n-1 denominator.
  double variance() const noexcept;
  /// sqrt(var / N): the error bar under the (wrong, for one trajectory)
  /// iid assumption.
  double naive_error() const noexcept;
  /// Autocorrelation-aware error: err_l at the deepest level with at least
  /// kMinBinsForError completed bins (the binning plateau). Falls back to
  /// the naive error while the stream is too short to have such a level.
  double binned_error() const noexcept;
  /// Integrated autocorrelation time 0.5 * (binned/naive)^2, in units of
  /// the sampling interval. 0.5 means uncorrelated samples.
  double tau_int() const noexcept;
  /// binned_error / |mean|; 0 for an exactly-zero observable with zero
  /// error (deep blockade), +inf when the mean is 0 but the error is not.
  double rel_error() const noexcept;

  std::size_t level_count() const noexcept { return levels_.size(); }
  std::uint64_t level_bins(std::size_t l) const;
  /// Error estimate sqrt(var_l / n_l) at one level (0 below 2 bins).
  double level_error(std::size_t l) const;

  void encode(BinaryWriter& w) const;
  static BinningAccumulator decode(BinaryReader& r);

 private:
  std::vector<Level> levels_;
};

}  // namespace semsim
