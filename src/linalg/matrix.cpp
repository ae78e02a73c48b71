#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace semsim {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    require(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  require(x.size() == cols_, "Matrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_data(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& b) const {
  require(cols_ == b.rows_, "Matrix::multiply: shape mismatch");
  Matrix c(rows_, b.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.row_data(k);
      double* crow = c.row_data(i);
      for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::max_abs_diff(const Matrix& b) const {
  require(rows_ == b.rows_ && cols_ == b.cols_,
          "Matrix::max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - b.data_[i]));
  }
  return m;
}

bool Matrix::is_symmetric(double tol) const noexcept {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

}  // namespace semsim
