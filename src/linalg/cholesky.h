// Cholesky factorization and inverse for symmetric positive-definite systems.
//
// The island-capacitance matrix C_II of a physical circuit is SPD (it is a
// weighted graph Laplacian plus positive diagonal ground/lead coupling), so
// Cholesky both halves the inversion cost versus LU and acts as a structural
// validity check: a factorization failure means the netlist has a floating
// island with no capacitive path to any fixed potential.
//
// The factor is sparse: column j of L subtracts only the earlier columns
// whose entry in row j is not +0.0, each over its own nonzero rows, and the
// inverse's products run only over each row's nonzero extent. The terms
// left out (or added) are exact +-0 products, so L and A^-1 carry the same
// bits as the dense textbook loops (tests/test_linalg.cpp keeps those loops
// as the oracle).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace semsim {

class CholeskyDecomposition {
 public:
  /// Factors SPD `a` as L L^T in a's storage (pass an rvalue to skip the
  /// copy). Only the lower triangle of `a` is read. Throws NumericError
  /// (kNotPositiveDefinite) if `a` is not positive definite to working
  /// precision.
  explicit CholeskyDecomposition(Matrix a);

  std::size_t size() const noexcept { return l_.rows(); }

  std::vector<double> solve(const std::vector<double>& b) const;

  Matrix inverse() const;

  /// The lower-triangular factor (strict upper triangle exactly +0.0).
  const Matrix& l() const noexcept { return l_; }

 private:
  Matrix l_;
  /// Column of the first nonzero entry of each row of L.
  std::vector<std::size_t> first_;
};

/// Inverse of SPD `a`, computed in a's own storage: factor, invert L and
/// form L^-T L^-1 in place, so one n x n buffer serves the whole chain.
/// Bitwise equal to CholeskyDecomposition(a).inverse(), and symmetric bit
/// for bit (the lower triangle is mirrored). Throws like the constructor.
Matrix spd_inverse(Matrix a);

/// Convenience: true when `a` is SPD (factorization succeeds).
bool is_positive_definite(const Matrix& a);

}  // namespace semsim
