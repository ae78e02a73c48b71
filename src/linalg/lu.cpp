#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/error.h"

namespace semsim {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  require(lu_.rows() == lu_.cols(), "LuDecomposition: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |a_ik| for i >= k.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best == 0.0) {
      throw NumericError(ErrorCode::kSingularMatrix,
                         "LuDecomposition: singular matrix at column " +
                             std::to_string(k));
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(pivot, c), lu_(k, c));
      }
      std::swap(perm_[pivot], perm_[k]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) * inv_pivot;
      lu_(i, k) = factor;
      if (factor == 0.0) continue;
      const double* urow = lu_.row_data(k);
      double* irow = lu_.row_data(i);
      for (std::size_t c = k + 1; c < n; ++c) irow[c] -= factor * urow[c];
    }
  }
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
  require(b.size() == size(), "LuDecomposition::solve: size mismatch");
  std::vector<double> x(size());
  for (std::size_t i = 0; i < size(); ++i) x[i] = b[perm_[i]];
  // Forward substitution (L has unit diagonal).
  const std::size_t n = size();
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = lu_.row_data(i);
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu_.row_data(ii);
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
  return x;
}

void LuDecomposition::solve_in_place(std::vector<double>& x) const {
  x = solve(x);
}

Matrix LuDecomposition::inverse() const {
  const std::size_t n = size();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e.assign(n, 0.0);
    e[c] = 1.0;
    const std::vector<double> col = solve(e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double LuDecomposition::determinant() const noexcept {
  double det = static_cast<double>(perm_sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

}  // namespace semsim
