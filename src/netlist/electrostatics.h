// Electrostatic model of a single-electron circuit.
//
// Splits the node set into islands (floating, quantized charge) and fixed-
// potential nodes (ground + externals), assembles the island capacitance
// matrix C_II and the island-to-external coupling C_IE, and precomputes
//   kappa = C_II^-1                (the paper's C^-1 in Eq. 2)
//   S     = -C_II^-1 * C_IE       (island-potential sensitivity to inputs)
// so the Monte-Carlo loop can evaluate potentials, potential *changes* after
// a tunnel event, and free-energy changes in O(1) per matrix entry.
//
// C_II is symmetric positive definite for any electrically valid circuit;
// the Cholesky factorization doubles as the validity check. C_II itself is
// not kept: it is inverted in its own storage (spd_inverse), and only its
// diagonal (each island's C_sigma) survives the build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "netlist/circuit.h"

namespace semsim {

/// A capacitive element (junction capacitance or pure capacitor).
struct CapacitiveElement {
  NodeId a = 0;
  NodeId b = 0;
  double capacitance = 0.0;
};

class ElectrostaticModel {
 public:
  /// Builds the model. Throws CircuitError / NumericError when the circuit
  /// is structurally or electrically invalid (e.g. an island with no
  /// capacitive path to any fixed potential makes C_II singular).
  explicit ElectrostaticModel(const Circuit& circuit);

  std::size_t island_count() const noexcept { return island_nodes_.size(); }
  std::size_t external_count() const noexcept { return external_nodes_.size(); }

  /// Island index of node `n`, or -1 when `n` is not an island.
  int island_index(NodeId n) const noexcept {
    return island_index_[static_cast<std::size_t>(n)];
  }
  NodeId island_node(std::size_t idx) const { return island_nodes_.at(idx); }

  /// External index of node `n`, or -1 (ground is not an external).
  int external_index(NodeId n) const noexcept {
    return external_index_[static_cast<std::size_t>(n)];
  }
  NodeId external_node(std::size_t idx) const { return external_nodes_.at(idx); }

  const Matrix& c_ie() const noexcept { return c_ie_; }
  const Matrix& kappa() const noexcept { return kappa_; }
  const Matrix& source_gain() const noexcept { return source_gain_; }

  /// Contiguous row `k` of kappa. kappa is bitwise symmetric (the Cholesky
  /// inverse mirrors its lower triangle), so row k carries exactly the bits
  /// of column k — the hot loop reads columns through this accessor to walk
  /// linear memory instead of striding the row-major storage.
  const double* kappa_row(std::size_t k) const noexcept {
    return kappa_.row_data(k);
  }

  /// Nonzero extent [row_begin(k), row_end(k)) of kappa row k after the
  /// construction-time flush (see row_begin_ below). Callers that scale a
  /// row may skip the all-zero tails bitwise-safely: the skipped products
  /// are exact zeros.
  std::size_t row_begin(std::size_t k) const noexcept { return row_begin_[k]; }
  std::size_t row_end(std::size_t k) const noexcept { return row_end_[k]; }

  /// kappa entry generalized to node ids: zero when either node is not an
  /// island (the convention of Eq. 2 — leads have no charging term).
  double kappa_node(NodeId a, NodeId b) const noexcept;

  /// Island potentials [V] from island charges `q` [C] and external lead
  /// voltages `v_ext` [V] (both indexed by island/external index):
  ///   v = kappa * q + S * v_ext.
  std::vector<double> island_potentials(const std::vector<double>& q,
                                        const std::vector<double>& v_ext) const;

  /// Allocation-free variant: writes the island potentials into `v`
  /// (island_count() entries). `q` has island_count() entries, `v_ext`
  /// external_count(); `v` may not alias either. Bitwise identical to
  /// island_potentials() — same per-row accumulation order.
  void island_potentials_into(const double* q, const double* v_ext,
                              double* v) const;

  /// Potential change of island `k` when charge `dq` [C] is added to the
  /// island whose kappa row is `row` (nullptr when the endpoint is not an
  /// island): row[k] * dq. Because kappa is bitwise symmetric, row[k] is
  /// the column entry kappa[k][island], read from contiguous memory.
  /// Deliberately out of line: see the definition for the rounding contract.
  static double potential_delta_row(const double* row, std::size_t k,
                                    double dq) noexcept;

  /// All capacitive elements (junction capacitances first, then capacitors).
  const std::vector<CapacitiveElement>& capacitive_elements() const noexcept {
    return elements_;
  }

  /// Sum of capacitances attached to island node `n` (the C_sigma of a SET).
  double total_capacitance(NodeId n) const;

 private:
  std::vector<NodeId> island_nodes_;
  std::vector<NodeId> external_nodes_;
  std::vector<int> island_index_;
  std::vector<int> external_index_;
  std::vector<CapacitiveElement> elements_;
  std::vector<double> c_sigma_;  ///< diagonal of C_II, per island
  Matrix c_ie_;
  Matrix kappa_;
  Matrix source_gain_;
  // Per-row nonzero extent of kappa: [row_begin_[r], row_end_[r]) brackets
  // every nonzero entry of row r after the construction-time flush. The
  // inverse of a chain-topology C_II decays geometrically off-diagonal, so
  // flushing turns it into a band matrix; the refresh matvec skips the
  // all-zero tails (bitwise safe — see island_potentials_into).
  std::vector<std::uint32_t> row_begin_;
  std::vector<std::uint32_t> row_end_;
};

}  // namespace semsim
