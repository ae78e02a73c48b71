#include "netlist/electrostatics.h"

#include "base/error.h"
#include "linalg/cholesky.h"

namespace semsim {
namespace {

/// Inverse-capacitance entries with magnitude below this are flushed to
/// exact zero at construction (see the comment at the flush loop).
constexpr double kKappaFlushThreshold = 1e-100;

}  // namespace

ElectrostaticModel::ElectrostaticModel(const Circuit& circuit) {
  circuit.validate();

  const std::size_t n_nodes = circuit.node_count();
  island_index_.assign(n_nodes, -1);
  external_index_.assign(n_nodes, -1);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    switch (circuit.node(id).kind) {
      case NodeKind::kIsland:
        island_index_[i] = static_cast<int>(island_nodes_.size());
        island_nodes_.push_back(id);
        break;
      case NodeKind::kExternal:
        external_index_[i] = static_cast<int>(external_nodes_.size());
        external_nodes_.push_back(id);
        break;
      case NodeKind::kGround:
        break;
    }
  }

  elements_.reserve(circuit.junction_count() + circuit.capacitor_count());
  for (const Junction& j : circuit.junctions()) {
    elements_.push_back(CapacitiveElement{j.a, j.b, j.capacitance});
  }
  for (const Capacitor& c : circuit.capacitors()) {
    elements_.push_back(CapacitiveElement{c.a, c.b, c.capacitance});
  }

  const std::size_t ni = island_nodes_.size();
  const std::size_t ne = external_nodes_.size();
  Matrix c_ii(ni, ni);
  c_ie_ = Matrix(ni, ne);

  // Island charge: Q_k = sum_elem C (v_k - v_other)
  //              = C_II v_I + C_IE v_E   (ground contributes only to diag).
  for (const CapacitiveElement& e : elements_) {
    const int ia = island_index_[static_cast<std::size_t>(e.a)];
    const int ib = island_index_[static_cast<std::size_t>(e.b)];
    const int ea = external_index_[static_cast<std::size_t>(e.a)];
    const int eb = external_index_[static_cast<std::size_t>(e.b)];
    if (ia >= 0) c_ii(static_cast<std::size_t>(ia), static_cast<std::size_t>(ia)) += e.capacitance;
    if (ib >= 0) c_ii(static_cast<std::size_t>(ib), static_cast<std::size_t>(ib)) += e.capacitance;
    if (ia >= 0 && ib >= 0) {
      c_ii(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib)) -= e.capacitance;
      c_ii(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia)) -= e.capacitance;
    }
    if (ia >= 0 && eb >= 0) c_ie_(static_cast<std::size_t>(ia), static_cast<std::size_t>(eb)) -= e.capacitance;
    if (ib >= 0 && ea >= 0) c_ie_(static_cast<std::size_t>(ib), static_cast<std::size_t>(ea)) -= e.capacitance;
  }
  c_sigma_.resize(ni);
  for (std::size_t k = 0; k < ni; ++k) c_sigma_[k] = c_ii(k, k);

  if (ni > 0) {
    try {
      kappa_ = spd_inverse(std::move(c_ii));
    } catch (NumericError& e) {
      // Caught by reference and rethrown with `throw;`, so the added frame
      // survives and the concrete type is preserved for catch-by-type.
      e.add_context("electrostatic model: factorizing the " +
                    std::to_string(ni) + "x" + std::to_string(ni) +
                    " island capacitance matrix C_II");
      throw;
    }
    // Flush kappa entries with |x| < 1e-100 to exact zero. In long weakly
    // coupled chains the off-diagonal inverse decays geometrically, leaving
    // thousands of entries down to ~1e-306; multiplied by an island charge
    // (|q| ~ 1e-19 C) those produce DENORMAL products, and every one takes
    // a microcode assist (~60 cycles) in the refresh matvec — measured at
    // >60% of the 1024-island refresh cost. The flush is value-safe: an
    // entry below the cut contributes under 1e-119 V per elementary
    // charge, more than 100 orders of magnitude below one ulp of any
    // representable island potential the same row produces (diagonal
    // entries are 1/C_sigma >= 1e16, so row dot products sit far above
    // 1e-119 in every reachable state), and the clamped row-tail sum stays
    // equally negligible. Entries a circuit meaningfully relies on are
    // >= 1e-2: over 90 orders of magnitude above the cut.
    row_begin_.assign(ni, 0);
    row_end_.assign(ni, 0);
    for (std::size_t r = 0; r < ni; ++r) {
      double* row = kappa_.row_data(r);
      for (std::size_t c = 0; c < ni; ++c) {
        if (row[c] > -kKappaFlushThreshold && row[c] < kKappaFlushThreshold) {
          row[c] = 0.0;
        }
      }
      // Nonzero extent (the diagonal is 1/C_sigma > 0, so never empty).
      std::size_t b = 0;
      while (b < ni && row[b] == 0.0) ++b;
      std::size_t e2 = ni;
      while (e2 > b && row[e2 - 1] == 0.0) --e2;
      row_begin_[r] = static_cast<std::uint32_t>(b);
      row_end_[r] = static_cast<std::uint32_t>(e2);
    }
    // S = -kappa * C_IE, one column at a time from that column's nonzero
    // entries: S(r,c) = -sum_k kappa(r,k) C_IE(k,c) over k ascending, the
    // order of a dense kappa.multiply(c_ie_), whose other terms are exact
    // +-0 products (bitwise safe, as in island_potentials_into). kappa(r,k)
    // is read as kappa_row(k)[r], the same bits, over row k's extent.
    source_gain_ = Matrix(ni, ne);
    std::vector<double> acc(ni);
    for (std::size_t c = 0; c < ne; ++c) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t k = 0; k < ni; ++k) {
        const double cie = c_ie_(k, c);
        if (cie == 0.0) continue;
        const double* row = kappa_.row_data(k);
        for (std::size_t r = row_begin_[k]; r < row_end_[k]; ++r) {
          acc[r] += row[r] * cie;
        }
      }
      for (std::size_t r = 0; r < ni; ++r) source_gain_(r, c) = -acc[r];
    }
  } else {
    kappa_ = Matrix(0, 0);
    source_gain_ = Matrix(0, ne);
  }
}

double ElectrostaticModel::kappa_node(NodeId a, NodeId b) const noexcept {
  const int ia = island_index_[static_cast<std::size_t>(a)];
  const int ib = island_index_[static_cast<std::size_t>(b)];
  if (ia < 0 || ib < 0) return 0.0;
  return kappa_(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib));
}

std::vector<double> ElectrostaticModel::island_potentials(
    const std::vector<double>& q, const std::vector<double>& v_ext) const {
  require(q.size() == island_count(),
          "island_potentials: charge vector size mismatch");
  require(v_ext.size() == external_count(),
          "island_potentials: external voltage vector size mismatch");
  std::vector<double> v(island_count(), 0.0);
  island_potentials_into(q.data(), v_ext.data(), v.data());
  return v;
}

void ElectrostaticModel::island_potentials_into(const double* q,
                                                const double* v_ext,
                                                double* v) const {
  // Same accumulation order as Matrix::multiply: one left-to-right dot
  // product per row for kappa * q, then one per row for S * v_ext added on
  // top. The engine's bitwise-reproducibility contract pins this order.
  //
  // Rows run eight at a time with one accumulator chain each. Within a row
  // the sum is still the strict left-to-right sequence of the single-row
  // loop — bitwise identical — but the eight chains are independent, so one
  // row's FMA latency overlaps the others' instead of serializing. The
  // O(I^2) refresh matvec is latency-bound (strict FP forbids the compiler
  // from splitting a row into multiple accumulators); four chains left the
  // kappa stream at half the machine's sequential read bandwidth, eight
  // saturate it. This interleave is what keeps the periodic full refresh
  // off the adaptive path's back.
  // Each row's dot product runs only over its nonzero extent (the union of
  // the eight extents for an interleaved group). Skipping the all-zero
  // tails is bitwise identical to the dense loop: every skipped term is an
  // exact 0.0 entry, whose product with a finite charge is +-0.0, and
  // adding +-0.0 never changes an accumulator — the chain starts at +0.0,
  // +0.0 + (+-0.0) stays +0.0, a nonzero partial sum is unchanged, and no
  // partial sum can be -0.0 (exact cancellation rounds to +0.0, and the
  // surviving entries are too large for a product to underflow). On a long
  // chain this turns the O(I^2) refresh into an O(I * bandwidth) one.
  const std::size_t ni = island_count();
  const std::uint32_t* rb = row_begin_.data();
  const std::uint32_t* re = row_end_.data();
  std::size_t r = 0;
  for (; r + 8 <= ni; r += 8) {
    const double* r0 = kappa_.row_data(r);
    const double* r1 = kappa_.row_data(r + 1);
    const double* r2 = kappa_.row_data(r + 2);
    const double* r3 = kappa_.row_data(r + 3);
    const double* r4 = kappa_.row_data(r + 4);
    const double* r5 = kappa_.row_data(r + 5);
    const double* r6 = kappa_.row_data(r + 6);
    const double* r7 = kappa_.row_data(r + 7);
    std::size_t lo = rb[r], hi = re[r];
    for (std::size_t i = 1; i < 8; ++i) {
      if (rb[r + i] < lo) lo = rb[r + i];
      if (re[r + i] > hi) hi = re[r + i];
    }
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
    for (std::size_t c = lo; c < hi; ++c) {
      const double qc = q[c];
      a0 += r0[c] * qc;
      a1 += r1[c] * qc;
      a2 += r2[c] * qc;
      a3 += r3[c] * qc;
      a4 += r4[c] * qc;
      a5 += r5[c] * qc;
      a6 += r6[c] * qc;
      a7 += r7[c] * qc;
    }
    v[r] = a0;
    v[r + 1] = a1;
    v[r + 2] = a2;
    v[r + 3] = a3;
    v[r + 4] = a4;
    v[r + 5] = a5;
    v[r + 6] = a6;
    v[r + 7] = a7;
  }
  for (; r < ni; ++r) {
    const double* row = kappa_.row_data(r);
    double acc = 0.0;
    for (std::size_t c = rb[r]; c < re[r]; ++c) acc += row[c] * q[c];
    v[r] = acc;
  }
  const std::size_t ne = external_count();
  if (ne == 0) return;
  for (r = 0; r < ni; ++r) {
    const double* row = source_gain_.row_data(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < ne; ++c) acc += row[c] * v_ext[c];
    v[r] += acc;
  }
}

double ElectrostaticModel::potential_delta_row(const double* row, std::size_t k,
                                               double dq) noexcept {
  // Out-of-line on purpose: the value must be exactly one rounded product,
  // and keeping the call boundary prevents the caller's surrounding
  // arithmetic from contracting into this multiply. `row` is a kappa row
  // (nullptr for a non-island endpoint); by bitwise symmetry row[k] carries
  // exactly the bits of the column entry kappa[k][island], but the access
  // is contiguous in the caller's loop instead of an 8 KiB stride per
  // element.
  return row ? row[k] * dq : 0.0;
}

double ElectrostaticModel::total_capacitance(NodeId n) const {
  const int in = island_index_[static_cast<std::size_t>(n)];
  require(in >= 0, "total_capacitance: node is not an island");
  return c_sigma_[static_cast<std::size_t>(in)];
}

}  // namespace semsim
