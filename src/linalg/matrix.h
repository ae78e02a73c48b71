// Dense row-major matrix of doubles.
//
// Sized for the problems SEMSIM solves: island-capacitance matrices (up to a
// few thousand islands) and MNA systems of similar size. Operations the
// simulator is hot on (matrix-vector products, column extraction) are simple
// loops the compiler vectorizes well; factorizations live in lu.h/cholesky.h.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "base/error.h"

namespace semsim {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Checked element access (throws on out-of-range).
  double at(std::size_t r, std::size_t c) const;

  const double* row_data(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }
  double* row_data(std::size_t r) noexcept { return data_.data() + r * cols_; }

  /// y = A * x. x.size() must equal cols().
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// C = A * B.
  Matrix multiply(const Matrix& b) const;

  Matrix transposed() const;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  double max_abs_diff(const Matrix& b) const;

  bool is_symmetric(double tol = 1e-12) const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace semsim
