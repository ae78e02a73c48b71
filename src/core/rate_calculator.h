// Binds the physics models of src/physics to a concrete circuit.
//
// Stateless with respect to the Monte-Carlo trajectory: every method maps
// node potentials to free-energy changes and rates. The per-junction
// charging terms u_j = q^2/2 (kappa_aa + kappa_bb - 2 kappa_ab) are
// precomputed so a single-electron rate evaluation in the hot loop is a
// subtraction, a multiply and one orthodox-rate call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/options.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "physics/cotunneling.h"
#include "physics/qp_rate.h"
#include "physics/rates.h"

namespace semsim {

/// Free-energy changes and rates of one junction's two directed channels.
/// Forward = electron (or pair) transfer a -> b.
struct ChannelRates {
  double dw_fw = 0.0;
  double dw_bw = 0.0;
  double rate_fw = 0.0;
  double rate_bw = 0.0;
};

class RateCalculator {
 public:
  RateCalculator(const Circuit& circuit, const ElectrostaticModel& model,
                 const EngineOptions& options);

  bool superconducting() const noexcept { return superconducting_; }
  bool cotunneling_enabled() const noexcept { return cotunneling_; }

  /// Effective gap Delta(T) for this simulation [J] (0 when normal).
  double gap() const noexcept { return gap_; }

  /// True when single-electron channels go through the quasi-particle table
  /// (superconducting with a non-zero gap) instead of the orthodox kernel.
  bool quasiparticle() const noexcept { return qp_unit_ != nullptr; }

  /// k_B * T [J] — the `kt` argument of physics/rates batch kernels.
  double kt() const noexcept { return kt_; }

  /// Per-CHANNEL conductance 1/(e^2 R_j), duplicated (fw, bw) per junction:
  /// the `conductance` argument of the batch kernels, 2 * junction_count
  /// entries aligned with the engine's channel layout.
  const double* channel_conductance() const noexcept { return chan_g_.data(); }

  /// Per-junction charging terms u_j [J], junction_count entries.
  const double* charging_terms() const noexcept { return u_.data(); }

  /// Single-electron (normal) or quasi-particle (superconducting) channel
  /// rates for junction `j` given its current node potentials.
  ChannelRates junction_rates(std::size_t j, double va, double vb) const;

  /// Fused SoA ΔW pass: dw[2j] / dw[2j+1] = forward / backward free-energy
  /// change of junction j, read straight from the unified potential array
  /// through the engine's endpoint slots. Deliberately compiled in this
  /// translation unit with the same expression forms as junction_rates, so
  /// the compiler emits identical contraction and the refreshed ΔW store is
  /// bitwise equal to what the scalar path computed.
  void delta_w_batch(const double* v, const std::uint32_t* slot_a,
                     const std::uint32_t* slot_b, std::size_t n_junc,
                     double* dw) const noexcept;

  /// Gathered ΔW pass over a flagged-junction subset (adaptive path): for
  /// i in [0, n_flagged), junction junctions[i] writes dw[2i] / dw[2i+1].
  /// Same expressions and TU as delta_w_batch for the same bitwise reason.
  void delta_w_flagged(const double* v, const std::uint32_t* slot_a,
                       const std::uint32_t* slot_b,
                       const std::size_t* junctions, std::size_t n_flagged,
                       double* dw) const noexcept;

  /// Fused adaptive flagged-commit kernel: for each flagged junction j =
  /// junctions[i], recomputes the ΔW pair (same expressions as
  /// delta_w_flagged), writes it straight into the persistent per-channel
  /// store `dw_store` at (2j, 2j+1), and evaluates the junction's two rates
  /// into rates_out (2i, 2i+1) in the same pass — eliminating the
  /// gather/scatter scratch round-trip of the staged path. BITWISE
  /// CONTRACT (property-tested): the ΔW values equal delta_w_flagged's and
  /// the rates equal tunnel_rates_batch over the gathered subset —
  /// per-element expression forms are identical and x_over_expm1 is shared
  /// inline code. Normal-state only (the superconducting QP path never
  /// flags). A non-null `memo` (thermal channels only) routes each channel
  /// c through its line memo[c] (memo_thermal_rate, bitwise the same
  /// rates); returns the memo hits.
  std::size_t flagged_rates_fused(const double* v, const std::uint32_t* slot_a,
                                  const std::uint32_t* slot_b,
                                  const std::size_t* junctions,
                                  std::size_t n_flagged, double* dw_store,
                                  double* rates_out,
                                  RateMemoLine* memo = nullptr) const noexcept;

  /// Batched cotunneling rates over every enumerated path: per-path SoA
  /// constants (intermediate-state charging terms, end-node kappa entries,
  /// junction resistances) are precomputed at construction, so the per-event
  /// recompute reads three potentials per path from `cot_slot` (from, via,
  /// to — the engine's slot triples) and streams linearly. Bitwise
  /// identical to cotunneling_path_rate per path.
  void cotunneling_rates_batch(const double* v, const std::uint32_t* cot_slot,
                               double* out) const noexcept;

  /// Quasi-particle channel rates from a precomputed per-channel ΔW array
  /// (superconducting circuits): out[2j] / out[2j+1] per junction, scaled
  /// by 1/R_j exactly as junction_rates does.
  void qp_rates_from_dw(const double* dw, std::size_t n_junc,
                        double* out) const;

  /// Cooper-pair channel rates for junction `j` (superconducting only).
  ChannelRates cooper_pair_rates(std::size_t j, double va, double vb) const;

  /// Rate of one directed cotunneling path. `v_from/v_via/v_to` are the
  /// potentials of the path's three nodes; `dw_single_*` come out as the
  /// intermediate-state costs used (for diagnostics/tests).
  double cotunneling_path_rate(const CotunnelingPath& path, double v_from,
                               double v_via, double v_to) const;

  const std::vector<CotunnelingPath>& cotunneling_paths() const noexcept {
    return paths_;
  }

  /// Charging energy term u_j = e^2/2 (kappa_aa + kappa_bb - 2 kappa_ab) of
  /// junction `j` [J].
  double charging_term(std::size_t j) const { return u_.at(j); }

  /// Tabulates the quasi-particle rate over |delta_w| <= half_range, or
  /// adopts `shared` instead when it already is that table: same gap,
  /// temperature and range, bit for bit (QuasiparticleRate::tabulates).
  /// No-op for normal circuits.
  void build_qp_table(double half_range,
                      std::shared_ptr<const QuasiparticleRate> shared = nullptr);

  /// The unit-resistance quasi-particle rate (nullptr when normal or
  /// gapless); holds the table once build_qp_table has run.
  const std::shared_ptr<const QuasiparticleRate>& qp_unit() const noexcept {
    return qp_unit_;
  }

 private:
  const Circuit& circuit_;
  const ElectrostaticModel& model_;
  double temperature_ = 0.0;
  double kt_ = 0.0;  // k_B * temperature_ [J], precomputed once
  bool superconducting_ = false;
  bool cotunneling_ = false;
  double gap_ = 0.0;
  // Per-junction parameters as structure-of-arrays: the hot loop walks
  // resistance_/u_ linearly (one cache line covers 8 junctions) instead of
  // striding over an AoS record.
  std::vector<double> resistance_;
  std::vector<double> inv_res_;  // 1/R [1/Ohm] (QP channel scaling)
  std::vector<double> chan_g_;   // per CHANNEL 1/(e^2 R), 2 per junction
  std::vector<double> ej_;      // Josephson energy [J] (SC only, else 0)
  std::vector<double> cp_eta_;  // Cooper-pair broadening eta [J]
  std::vector<double> u_;  // per-junction single-charge charging term [J]
  std::vector<CotunnelingPath> paths_;
  // Per-path SoA constants for cotunneling_rates_batch (empty when
  // cotunneling is off): intermediate-state charging terms u_[j1]/u_[j2],
  // the three end-node kappa entries of the net-transfer charging term, and
  // the two junction resistances. Pure gathers of already-computed values —
  // the batch kernel's arithmetic expressions stay identical to
  // cotunneling_path_rate's, so the rates are bitwise unchanged.
  std::vector<double> cot_u1_, cot_u2_;
  std::vector<double> cot_kff_, cot_ktt_, cot_kft_;
  std::vector<double> cot_r1_, cot_r2_;
  // One QP shape table (rate at R = 1 Ohm), shared by every junction and
  // possibly by every engine of a run; per-junction rates scale by 1/R
  // since Eq. 3 is linear in the junction conductance.
  std::shared_ptr<const QuasiparticleRate> qp_unit_;
};

}  // namespace semsim
