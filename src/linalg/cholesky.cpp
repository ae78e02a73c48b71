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
// terms in the same (ascending-k) order, give or take terms whose product
// is an exact +-0 (one factor is a structural zero). Adding or
// subtracting +-0 changes no nonzero value and leaves +0.0 at +0.0; the only
// value it can change is -0.0 (-0.0 - -0.0 = +0.0). The accumulators of the
// inverse start at +0.0 and never become -0.0: round-to-nearest turns exact
// cancellation into +0.0, and +0.0 + -0.0 is +0.0. The factor's accumulator
// starts at a(i, j), so a -0.0 there takes the full dense loop.

using Profile = std::vector<std::size_t>;

bool is_plus_zero(double v) { return std::bit_cast<std::uint64_t>(v) == 0; }

/// Overwrites the lower triangle of `a` with L, one column at a time
/// (left-looking): for i > j
///   L(i,j) = (a(i,j) - sum_{k<j} L(j,k) L(i,k)) * (1 / L(j,j)),
/// and L(j,j) is the square root of the sum at i = j. Column j is formed in
/// row j of the strict upper triangle, where it is contiguous: A's column
/// is scattered there, then each finished column k < j with L(j,k) not
/// +0.0 is subtracted in ascending k, over the rows column k lists or, once
/// it fills a quarter of its extent [k, last[k]], over all of that. An
/// entry that is -0.0 in A takes the full dense loop. When column j starts,
/// row j of L (final by then) is copied into the lower triangle. Returns
/// first[i], the column of the first entry of A's row i that is not +0.0
/// (i if none); L is +0.0 before it, as fill-in never moves it.
Profile factor_in_place(Matrix& a) {
  const std::size_t n = a.rows();
  Profile first(n);
  std::vector<std::size_t> end(n);  // last row of A's column j not +0.0
  std::vector<std::vector<std::size_t>> neg_zero(n);  // i: a(i,j) is -0.0
  // Eight rows at a time, so that a dense A fills whole cache lines of the
  // upper rows instead of striding through them one entry at a time.
  for (std::size_t i0 = 0; i0 < n; i0 += 8) {
    const std::size_t i1 = std::min(n, i0 + 8);
    for (std::size_t i = i0; i < i1; ++i) {
      std::fill(a.row_data(i) + i + 1, a.row_data(i) + n, 0.0);
      first[i] = end[i] = i;
    }
    for (std::size_t j = 0; j + 1 < i1; ++j) {
      for (std::size_t i = std::max(i0, j + 1); i < i1; ++i) {
        const double v = a(i, j);
        if (is_plus_zero(v)) continue;
        first[i] = std::min(first[i], j);
        end[j] = i;
        a(j, i) = v;
        if (v == 0.0) neg_zero[j].push_back(i);
      }
    }
  }
  // Column k of L is +0.0 below row last[k]. A sparse column lists the rows
  // of its other entries in rows[start[k] .. start[k+1]), ascending, and
  // rows[next[k]] is the next one to be worked; a dense one lists none.
  std::vector<std::size_t> start(n + 1), next(n), last(n), rows;
  const auto dense = [&](std::size_t k) { return start[k] == start[k + 1]; };
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = a.row_data(j);  // L(j,k) at lj[k], k < j; L(i,j) at i >= j
    for (std::size_t k = first[j]; k < j; ++k) lj[k] = a(k, j);
    const double a_jj = lj[j];
    std::size_t hi = end[j];
    for (std::size_t k = first[j]; k < j; ++k) {
      const double ljk = lj[k];
      if (is_plus_zero(ljk)) continue;
      const double* lk = a.row_data(k);
      std::size_t stop = last[k];
      if (!dense(k)) {
        for (std::size_t p = next[k]++; p < start[k + 1]; ++p) {
          lj[rows[p]] -= ljk * lk[rows[p]];
        }
      } else if (k + 4 <= j && start[k] == start[k + 4]) {
        // Four dense columns in one pass over their joint extent, each entry
        // taking their products left to right (past its own extent a column
        // is +0.0, as L(j,k+1..k+3) may be).
        stop = std::max({stop, last[k + 1], last[k + 2], last[k + 3]});
        const double x1 = lj[k + 1], x2 = lj[k + 2], x3 = lj[k + 3];
        const double *l1 = lk + n, *l2 = l1 + n, *l3 = l2 + n;
        for (std::size_t i = j; i <= stop; ++i) {
          lj[i] = lj[i] - ljk * lk[i] - x1 * l1[i] - x2 * l2[i] - x3 * l3[i];
        }
        k += 3;
      } else {
        for (std::size_t i = j; i <= stop; ++i) lj[i] -= ljk * lk[i];
      }
      hi = std::max(hi, stop);
    }
    for (const std::size_t i : neg_zero[j]) {
      lj[i] = -0.0;
      for (std::size_t k = 0; k < j; ++k) lj[i] -= a(k, i) * lj[k];
    }
    const double diag = lj[j];
    // Relative pivot test: a pivot that cancels to rounding noise means the
    // matrix is singular in exact arithmetic (e.g. a group of islands with
    // no capacitive path to any fixed potential).
    if (!(diag > a_jj * 1e-12)) {
      throw NumericError(
          ErrorCode::kNotPositiveDefinite,
          "Cholesky: matrix not positive definite at pivot " +
          std::to_string(j) +
          " (circuit likely has an island with no capacitive path to a "
          "fixed potential)");
    }
    lj[j] = std::sqrt(diag);
    const double inv_ljj = 1.0 / lj[j];
    start[j] = next[j] = rows.size();
    last[j] = j;
    for (std::size_t i = j + 1; i <= hi; ++i) {
      lj[i] *= inv_ljj;
      if (is_plus_zero(lj[i])) continue;
      rows.push_back(i);
      last[j] = i;
    }
    if (4 * (rows.size() - start[j]) > last[j] - j) rows.resize(start[j]);
    start[j + 1] = rows.size();
  }
  return first;
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
  first_ = factor_in_place(l_);
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
  const Profile first = factor_in_place(a);
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
