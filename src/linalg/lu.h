// LU factorization with partial pivoting.
//
// Used for (a) inverting the island-capacitance matrix C_II once per circuit
// (Eq. 2 needs arbitrary entries of C_II^-1) and (b) solving the Newton
// linear systems of the MNA SPICE engine each iteration.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace semsim {

class LuDecomposition {
 public:
  /// Factors `a` (square). Throws NumericError when the matrix is singular
  /// to working precision.
  explicit LuDecomposition(Matrix a);

  std::size_t size() const noexcept { return lu_.rows(); }

  /// Solves A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves in place: x is b on entry, the solution on exit.
  void solve_in_place(std::vector<double>& x) const;

  /// A^-1 (column-by-column solves).
  Matrix inverse() const;

  /// det(A) from the factorization (sign includes pivoting parity).
  double determinant() const noexcept;

 private:
  Matrix lu_;                      // combined L (unit diag) and U factors
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
};

}  // namespace semsim
