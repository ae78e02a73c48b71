// Unit and property tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "base/error.h"
#include "base/random.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"

namespace semsim {
namespace {

Matrix random_matrix(std::size_t n, Xoshiro256& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = 2.0 * rng.uniform01() - 1.0;
  return m;
}

// Random SPD matrix: A = B B^T + n * I.
Matrix random_spd(std::size_t n, Xoshiro256& rng) {
  const Matrix b = random_matrix(n, rng);
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Matrix, InitializerListAndAccess) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_THROW(m.at(2, 0), Error);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, MultiplyVector) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  const auto y = m.multiply(std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_THROW(m.multiply(std::vector<double>{1.0}), Error);
}

TEST(Matrix, MultiplyMatrixAgainstIdentity) {
  Xoshiro256 rng(1);
  const Matrix a = random_matrix(5, rng);
  const Matrix i = Matrix::identity(5);
  EXPECT_LT(a.multiply(i).max_abs_diff(a), 1e-15);
  EXPECT_LT(i.multiply(a).max_abs_diff(a), 1e-15);
}

TEST(Matrix, TransposeInvolution) {
  Xoshiro256 rng(2);
  const Matrix a = random_matrix(4, rng);
  EXPECT_LT(a.transposed().transposed().max_abs_diff(a), 1e-16);
}

TEST(Matrix, SymmetryCheck) {
  Matrix s = {{2.0, 1.0}, {1.0, 3.0}};
  EXPECT_TRUE(s.is_symmetric());
  s(0, 1) = 1.1;
  EXPECT_FALSE(s.is_symmetric());
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  LuDecomposition lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DeterminantKnown) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 5.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  const Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, NumericError);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  const Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  LuDecomposition lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-14);
}

// Property: A * solve(A, b) == b for random systems of growing size.
class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, SolveResidualSmall) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Xoshiro256 rng(100 + n);
  const Matrix a = random_matrix(n, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = 2.0 * rng.uniform01() - 1.0;
  LuDecomposition lu(a);
  const auto x = lu.solve(b);
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST_P(LuProperty, InverseTimesOriginalIsIdentity) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Xoshiro256 rng(200 + n);
  const Matrix a = random_matrix(n, rng);
  const Matrix inv = LuDecomposition(a).inverse();
  EXPECT_LT(a.multiply(inv).max_abs_diff(Matrix::identity(n)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty, ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(Cholesky, MatchesLuOnSpd) {
  Xoshiro256 rng(7);
  for (std::size_t n : {1u, 3u, 10u, 25u}) {
    const Matrix a = random_spd(n, rng);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform01();
    const auto x_chol = CholeskyDecomposition(a).solve(b);
    const auto x_lu = LuDecomposition(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_chol[i], x_lu[i], 1e-9);
  }
}

TEST(Cholesky, FactorReconstructs) {
  Xoshiro256 rng(8);
  const Matrix a = random_spd(6, rng);
  const Matrix l = CholeskyDecomposition(a).l();
  EXPECT_LT(l.multiply(l.transposed()).max_abs_diff(a), 1e-10);
}

TEST(Cholesky, InverseIsInverse) {
  Xoshiro256 rng(9);
  const Matrix a = random_spd(12, rng);
  const Matrix inv = CholeskyDecomposition(a).inverse();
  EXPECT_LT(a.multiply(inv).max_abs_diff(Matrix::identity(12)), 1e-8);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyDecomposition{a}, NumericError);
  EXPECT_FALSE(is_positive_definite(a));
  EXPECT_TRUE(is_positive_definite(Matrix{{2.0, 1.0}, {1.0, 2.0}}));
}

TEST(Cholesky, SemidefiniteRejected) {
  // Laplacian of a disconnected-from-ground island pair: singular.
  const Matrix a = {{1.0, -1.0}, {-1.0, 1.0}};
  EXPECT_FALSE(is_positive_definite(a));
}

// ---- sparse kernels vs the dense loops, bit for bit -------------------------

/// The dense column-wise factor, kept verbatim as the oracle.
Matrix dense_factor(const Matrix& a) {
  Matrix l_(a.rows(), a.cols());
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    const double* lrow_j = l_.row_data(j);
    for (std::size_t k = 0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    if (!(diag > a(j, j) * 1e-12)) {
      throw NumericError(
          ErrorCode::kNotPositiveDefinite,
          "Cholesky: matrix not positive definite at pivot " +
          std::to_string(j) +
          " (circuit likely has an island with no capacitive path to a "
          "fixed potential)");
    }
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      const double* lrow_i = l_.row_data(i);
      for (std::size_t k = 0; k < j; ++k) v -= lrow_i[k] * lrow_j[k];
      l_(i, j) = v * inv_ljj;
    }
  }
  return l_;
}

/// The dense column-wise L^-1 and W^T W loops, verbatim.
Matrix dense_inverse(const Matrix& l_) {
  const std::size_t n = l_.rows();
  Matrix w(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    w(j, j) = 1.0 / l_(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* lrow = l_.row_data(i);
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc += lrow[k] * w(k, j);
      w(i, j) = -acc / lrow[i];
    }
  }
  Matrix inv(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double* wrow = w.row_data(k);
    for (std::size_t i = 0; i <= k; ++i) {
      const double wi = wrow[i];
      if (wi == 0.0) continue;
      double* out = inv.row_data(i);
      for (std::size_t j = 0; j <= i; ++j) out[j] += wi * wrow[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) inv(j, i) = inv(i, j);
  }
  return inv;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.row_data(0), b.row_data(0),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// Sparse SPD families: `coupled(i, j)` (j < i) marks the structural
/// nonzeros; each gets a C_II-like negative coupling of random size and the
/// diagonal dominates its row, so the matrix is SPD.
enum class Family {
  kBanded,          ///< random bandwidth 1..6
  kArrowhead,       ///< dense first column and last row
  kWeakBlocks,      ///< dense-ish blocks, rare 5e-4-weak couplers between
  kHolesInProfile,  ///< 8 % random couplings: zeros inside each profile
  kSignedZeros,     ///< as above, a third of the holes written as -0.0
  kDense,
  kDiagonal,
  kLogic,           ///< logic-shaped: L mostly zero inside a wide envelope
  kLogicSignedZeros ///< as above, a tenth of the envelope's holes -0.0
};

/// A C_II-like matrix shaped like a logic circuit: the first quarter of
/// the rows are wires, the rest gates of 2-4 islands coupled among
/// themselves; a gate's first island (and, half the time, its second)
/// couples to a random wire, and its last island to the gate's output
/// wire. Each island's row thus reaches far back to a wire (a wide
/// envelope) while L fills only along the few gates sharing a wire (about
/// 15 % of the envelope at n = 300-600, the real 4 x 384 fabric's is 5 %).
Matrix logic_matrix(std::size_t n, bool signed_zeros, Xoshiro256& rng) {
  Matrix a(n, n);
  const auto couple = [&](std::size_t i, std::size_t j) {
    const double c = (0.05 + rng.uniform01()) * 1e-18;
    a(i, j) -= c;
    a(j, i) -= c;
  };
  const std::size_t wires = std::max<std::size_t>(1, n / 4);
  std::size_t output = 0;
  for (std::size_t g = wires; g < n;) {
    const std::size_t len = std::min(n - g, 2 + rng.uniform_below(3));
    for (std::size_t i = g + 1; i < g + len; ++i) {
      for (std::size_t j = g; j < i; ++j) couple(i, j);
    }
    couple(g, rng.uniform_below(wires));
    if (len > 1 && rng.uniform01() < 0.5) {
      couple(g + 1, rng.uniform_below(wires));
    }
    couple(g + len - 1, output++ % wires);
    g += len;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = 0;
    while (j < i && a(i, j) == 0.0) ++j;
    for (; signed_zeros && j < i; ++j) {
      if (a(i, j) == 0.0 && rng.uniform01() < 0.1) a(i, j) = a(j, i) = -0.0;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += j == i ? 0.0 : -a(i, j);
    a(i, i) = sum + (0.1 + rng.uniform01()) * 1e-18;
  }
  return a;
}

Matrix family_matrix(Family f, std::size_t n, Xoshiro256& rng) {
  if (f == Family::kLogic || f == Family::kLogicSignedZeros) {
    return logic_matrix(n, f == Family::kLogicSignedZeros, rng);
  }
  const std::size_t band = 1 + rng.uniform_below(6);
  std::vector<std::size_t> block(n);  // block id of each row
  for (std::size_t i = 0, id = 0, left = 0; i < n; ++i) {
    if (left == 0) {
      ++id;
      left = 1 + rng.uniform_below(40);
    }
    block[i] = id;
    --left;
  }
  const auto coupled = [&](std::size_t i, std::size_t j) {
    switch (f) {
      case Family::kBanded:
        return i - j <= band;
      case Family::kArrowhead:
        return j == 0 || i + 1 == n;
      case Family::kWeakBlocks:
        return block[i] == block[j] ? rng.uniform01() < 0.5
                                    : rng.uniform01() < 0.002;
      case Family::kHolesInProfile:
      case Family::kSignedZeros:
        return rng.uniform01() < 0.08;
      case Family::kDense:
        return true;
      case Family::kDiagonal:
      case Family::kLogic:
      case Family::kLogicSignedZeros:
        return false;
    }
    return false;
  };
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (!coupled(i, j)) {
        if (f == Family::kSignedZeros && rng.uniform01() < 0.3) {
          a(i, j) = a(j, i) = -0.0;
        }
        continue;
      }
      const bool weak = f == Family::kWeakBlocks && block[i] != block[j];
      const double c = (weak ? 5e-4 : 1.0) * (0.05 + rng.uniform01()) * 1e-18;
      a(i, j) = a(j, i) = -c;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += j == i ? 0.0 : -a(i, j);
    a(i, i) = sum + (0.1 + rng.uniform01()) * 1e-18;
  }
  return a;
}

class CholeskyBitwise : public ::testing::TestWithParam<Family> {};

TEST_P(CholeskyBitwise, MatchesDenseLoops) {
  // Every size up to 48 (all remainders of the four-column runs), then a
  // spread up to 300; the logic-shaped families go on to 600, where long
  // zero runs appear inside their columns.
  const bool logic = GetParam() == Family::kLogic ||
                     GetParam() == Family::kLogicSignedZeros;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 48; ++n) sizes.push_back(n);
  for (std::size_t n = 61; n <= 300; n += 13) sizes.push_back(n);
  sizes.push_back(300);
  for (std::size_t n = 351; logic && n <= 600; n += 51) sizes.push_back(n);
  if (logic) sizes.push_back(600);
  Xoshiro256 rng(1000 + static_cast<std::uint64_t>(GetParam()));
  for (const std::size_t n : sizes) {
    const Matrix a = family_matrix(GetParam(), n, rng);
    const Matrix l = dense_factor(a);
    const Matrix inv = dense_inverse(l);
    const CholeskyDecomposition chol(a);
    EXPECT_TRUE(same_bits(chol.l(), l)) << "L differs at n = " << n;
    EXPECT_TRUE(same_bits(chol.inverse(), inv)) << "inverse differs at n = " << n;
    EXPECT_TRUE(same_bits(spd_inverse(a), inv))
        << "spd_inverse differs at n = " << n;
  }
}

const char* const kFamilyNames[] = {
    "Banded", "Arrowhead", "WeakBlocks", "HolesInProfile", "SignedZeros",
    "Dense",  "Diagonal",  "Logic",      "LogicSignedZeros"};

void PrintTo(Family f, std::ostream* os) {
  *os << kFamilyNames[static_cast<int>(f)];
}

std::string family_name(const ::testing::TestParamInfo<Family>& p) {
  return kFamilyNames[static_cast<int>(p.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Families, CholeskyBitwise,
    ::testing::Values(Family::kBanded, Family::kArrowhead, Family::kWeakBlocks,
                      Family::kHolesInProfile, Family::kSignedZeros,
                      Family::kDense, Family::kDiagonal, Family::kLogic,
                      Family::kLogicSignedZeros),
    family_name);

TEST(CholeskyBitwise, SingularMidMatrixFailsAtTheSamePivot) {
  // Islands 0-3 and 6-9 are grounded SETs in a chain; islands 4 and 5 are
  // coupled only to each other, so C_II is singular and the factor fails
  // at pivot 5, in the middle of the matrix.
  Circuit c;
  const NodeId lead = c.add_external("lead");
  std::vector<NodeId> islands;
  for (int k = 0; k < 10; ++k) islands.push_back(c.add_island());
  for (const int k : {0, 1, 2, 3, 6, 7, 8, 9}) {
    c.add_junction(lead, islands[k], 1e6, 1e-18);
    c.add_capacitor(islands[k], Circuit::kGroundNode, 2e-18);
    if (k != 3 && k != 9) c.add_capacitor(islands[k], islands[k + 1], 0.5e-18);
  }
  c.add_junction(islands[4], islands[5], 1e6, 1e-18);

  // The same C_II assembled by hand (islands in node order).
  const auto index = [&](NodeId n) {
    for (std::size_t k = 0; k < islands.size(); ++k) {
      if (islands[k] == n) return static_cast<int>(k);
    }
    return -1;
  };
  Matrix c_ii(10, 10);
  const auto stamp = [&](NodeId a, NodeId b, double cap) {
    const int ia = index(a), ib = index(b);
    if (ia >= 0) c_ii(ia, ia) += cap;
    if (ib >= 0) c_ii(ib, ib) += cap;
    if (ia >= 0 && ib >= 0) {
      c_ii(ia, ib) -= cap;
      c_ii(ib, ia) -= cap;
    }
  };
  for (const Junction& j : c.junctions()) stamp(j.a, j.b, j.capacitance);
  for (const Capacitor& k : c.capacitors()) stamp(k.a, k.b, k.capacitance);
  std::string dense_message;
  try {
    dense_factor(c_ii);
  } catch (const NumericError& e) {
    dense_message = e.what();
  }
  try {
    const ElectrostaticModel m(c);
    FAIL() << "singular C_II was accepted";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotPositiveDefinite);
    EXPECT_EQ(e.message(), dense_message);
    EXPECT_NE(e.message().find("at pivot 5 "), std::string::npos) << e.what();
    ASSERT_EQ(e.context().size(), 1u);
    EXPECT_EQ(e.context()[0],
              "electrostatic model: factorizing the 10x10 island capacitance "
              "matrix C_II");
  }
}

}  // namespace
}  // namespace semsim
