#include "linalg/cholesky.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "base/error.h"

namespace semsim {
namespace {

// Why skipping is bitwise safe. Each kernel below reproduces one dense loop
// of the textbook algorithm entry by entry: the same accumulator, the same
// terms in the same (ascending-k) order. It leaves out only terms whose
// product is an exact +-0 (one factor is a structural zero). Adding or
// subtracting +-0 changes no nonzero value and leaves +0.0 at +0.0; the only
// value it can change is -0.0 (-0.0 - -0.0 = +0.0). The accumulators of the
// inverse start at +0.0 and never become -0.0: round-to-nearest turns exact
// cancellation into +0.0, and +0.0 + -0.0 is +0.0. The factor's accumulator
// starts at a(i, j), so a -0.0 there takes the full dense loop.

using Profile = std::vector<std::size_t>;

/// first[i]: column of the first entry of row i's lower triangle that is
/// not +0.0 (i when there is none). A -0.0 counts as nonzero here.
Profile row_profile(const Matrix& a) {
  const std::size_t n = a.rows();
  Profile first(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = a.row_data(i);
    std::size_t j = 0;
    while (j < i && std::bit_cast<std::uint64_t>(row[j]) == 0) ++j;
    first[i] = j;
  }
  return first;
}

bool is_negative_zero(double v) { return v == 0.0 && std::signbit(v); }

/// Overwrites the lower triangle of `a` with L, row by row (up-looking):
///   L(i,j) = (a(i,j) - sum_{k<j} L(i,k) L(j,k)) * (1 / L(j,j)),
///   L(i,i) = sqrt(a(i,i) - sum_{k<i} L(i,k)^2).
/// Row i starts at first[i]: the entries before it are +0.0 in A and stay
/// +0.0 in L, so a(i,j) - L(i,k) L(j,k) is worked only for k from
/// max(first[i], first[j]). Pivots fail in the same order as a column-wise
/// factor (row i needs only pivots < i). The strict upper triangle is
/// neither read nor written.
///
/// Four entries of a row run at once: their sums over the common range
/// k < j are four independent chains (one row's subtraction latency hides
/// behind the others'), each still in ascending k. The shared start is the
/// smallest of the four; the extra terms it gives an entry are exact +-0
/// products. The four then finish in turn, each using the ones before it.
void factor_in_place(Matrix& a, const Profile& first) {
  const std::size_t n = a.rows();
  std::vector<double> inv_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* li = a.row_data(i);
    const std::size_t fi = first[i];
    std::size_t j = fi;
    for (; j + 4 <= i; j += 4) {
      const double* l0 = a.row_data(j);
      const double* l1 = a.row_data(j + 1);
      const double* l2 = a.row_data(j + 2);
      const double* l3 = a.row_data(j + 3);
      double v0 = li[j], v1 = li[j + 1], v2 = li[j + 2], v3 = li[j + 3];
      std::size_t k = std::max(
          fi, std::min({first[j], first[j + 1], first[j + 2], first[j + 3]}));
      if (is_negative_zero(v0) || is_negative_zero(v1) ||
          is_negative_zero(v2) || is_negative_zero(v3)) {
        k = 0;
      }
      for (; k < j; ++k) {
        const double x = li[k];
        v0 -= x * l0[k];
        v1 -= x * l1[k];
        v2 -= x * l2[k];
        v3 -= x * l3[k];
      }
      li[j] = v0 * inv_diag[j];
      v1 -= li[j] * l1[j];
      li[j + 1] = v1 * inv_diag[j + 1];
      v2 -= li[j] * l2[j];
      v2 -= li[j + 1] * l2[j + 1];
      li[j + 2] = v2 * inv_diag[j + 2];
      v3 -= li[j] * l3[j];
      v3 -= li[j + 1] * l3[j + 1];
      v3 -= li[j + 2] * l3[j + 2];
      li[j + 3] = v3 * inv_diag[j + 3];
    }
    for (; j < i; ++j) {
      const double* lj = a.row_data(j);
      double v = li[j];
      std::size_t k = is_negative_zero(v) ? 0 : std::max(fi, first[j]);
      for (; k < j; ++k) v -= li[k] * lj[k];
      li[j] = v * inv_diag[j];
    }
    const double a_ii = li[i];
    double diag = a_ii;
    for (std::size_t k = fi; k < i; ++k) diag -= li[k] * li[k];
    // Relative pivot test: a pivot that cancels to rounding noise means the
    // matrix is singular in exact arithmetic (e.g. a group of islands with
    // no capacitive path to any fixed potential).
    if (!(diag > a_ii * 1e-12)) {
      throw NumericError(
          ErrorCode::kNotPositiveDefinite,
          "Cholesky: matrix not positive definite at pivot " +
          std::to_string(i) +
          " (circuit likely has an island with no capacitive path to a "
          "fixed potential)");
    }
    li[i] = std::sqrt(diag);
    inv_diag[i] = 1.0 / li[i];
  }
}

/// Overwrites L (lower triangle of `a`) with W = L^-1, row by row:
///   W(i,i) = 1 / L(i,i),
///   W(i,j) = -(sum_{k=j}^{i-1} L(i,k) W(k,j)) / L(i,i)   (k ascending),
/// accumulated as axpys of the finished rows W(k,.) over contiguous memory.
/// Returns wfirst: row i of W is +-0.0 before column wfirst[i].
Profile invert_lower_in_place(Matrix& a, const Profile& first) {
  const std::size_t n = a.rows();
  Profile wfirst(n);
  std::vector<double> acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = a.row_data(i);
    std::size_t lo = i;
    for (std::size_t k = first[i]; k < i; ++k) lo = std::min(lo, wfirst[k]);
    std::fill(acc.begin() + static_cast<std::ptrdiff_t>(lo),
              acc.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
    for (std::size_t k = first[i]; k < i; ++k) {
      const double lik = row[k];
      if (lik == 0.0) continue;
      const double* wk = a.row_data(k);
      for (std::size_t j = wfirst[k]; j <= k; ++j) acc[j] += lik * wk[j];
    }
    const double lii = row[i];
    for (std::size_t j = lo; j < i; ++j) row[j] = -acc[j] / lii;
    row[i] = 1.0 / lii;
    wfirst[i] = lo;
  }
  return wfirst;
}

/// Overwrites W (lower triangle of `a`) with A^-1 = W^T W, row by row:
///   A^-1(i,j) = sum_{k>=i} W(k,i) W(k,j)   (j <= i, k ascending),
/// reading only rows k >= i, so row i can be overwritten as soon as it is
/// formed. Each row W(k,.) is read over its extent [wfirst[k], i]. The
/// lower triangle is then mirrored, so the result is symmetric bit for bit.
void gram_in_place(Matrix& a, const Profile& wfirst) {
  const std::size_t n = a.rows();
  std::vector<double> acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              0.0);
    for (std::size_t k = i; k < n; ++k) {
      if (wfirst[k] > i) continue;
      const double* wk = a.row_data(k);
      const double wki = wk[i];
      if (wki == 0.0) continue;
      for (std::size_t j = wfirst[k]; j <= i; ++j) acc[j] += wki * wk[j];
    }
    std::copy(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              a.row_data(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = a.row_data(i);
    for (std::size_t j = 0; j < i; ++j) a(j, i) = row[j];
  }
}

}  // namespace

CholeskyDecomposition::CholeskyDecomposition(Matrix a) : l_(std::move(a)) {
  require(l_.rows() == l_.cols(), "Cholesky: matrix must be square");
  first_ = row_profile(l_);
  factor_in_place(l_, first_);
  const std::size_t n = l_.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = l_.row_data(i);
    std::fill(row + i + 1, row + n, 0.0);
  }
}

std::vector<double> CholeskyDecomposition::solve(
    const std::vector<double>& b) const {
  require(b.size() == size(), "Cholesky::solve: size mismatch");
  const std::size_t n = size();
  std::vector<double> x = b;
  // L y = b
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l_.row_data(i);
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc / row[i];
  }
  // L^T x = y
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l_(j, ii) * x[j];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Matrix CholeskyDecomposition::inverse() const {
  Matrix w = l_;
  gram_in_place(w, invert_lower_in_place(w, first_));
  return w;
}

Matrix spd_inverse(Matrix a) {
  require(a.rows() == a.cols(), "Cholesky: matrix must be square");
  const Profile first = row_profile(a);
  factor_in_place(a, first);
  gram_in_place(a, invert_lower_in_place(a, first));
  return a;
}

bool is_positive_definite(const Matrix& a) {
  if (a.rows() != a.cols()) return false;
  try {
    CholeskyDecomposition chol(a);
    return true;
  } catch (const NumericError&) {
    return false;
  }
}

}  // namespace semsim
