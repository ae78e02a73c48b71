#include "core/rate_calculator.h"

#include <algorithm>

#include "base/constants.h"
#include "base/error.h"
#include "base/math_util.h"
#include "physics/bcs.h"
#include "physics/cooper_pair.h"
#include "physics/free_energy.h"
#include "physics/rates.h"

namespace semsim {

RateCalculator::RateCalculator(const Circuit& circuit,
                               const ElectrostaticModel& model,
                               const EngineOptions& options)
    : circuit_(circuit),
      model_(model),
      temperature_(options.temperature),
      superconducting_(circuit.superconducting()),
      cotunneling_(options.cotunneling) {
  require(temperature_ >= 0.0, "RateCalculator: negative temperature");
  if (superconducting_ && cotunneling_) {
    throw CircuitError(
        "cotunneling is implemented for normal-state circuits only (the "
        "paper's superconducting model uses quasi-particle and Cooper-pair "
        "channels instead)");
  }

  if (superconducting_) {
    const SuperconductingParams& sc = circuit.superconducting_params();
    gap_ = bcs_gap(sc.delta0, sc.tc, temperature_);
  }

  kt_ = kBoltzmann * temperature_;

  const double e = kElementaryCharge;
  const std::size_t j_count = circuit.junction_count();
  resistance_.reserve(j_count);
  inv_res_.reserve(j_count);
  chan_g_.reserve(2 * j_count);
  ej_.assign(j_count, 0.0);
  cp_eta_.assign(j_count, 0.0);
  u_.reserve(j_count);
  for (std::size_t j = 0; j < j_count; ++j) {
    const Junction& jn = circuit.junction(j);
    resistance_.push_back(jn.resistance);
    // Same expressions orthodox_rate / junction_rates evaluate per call, so
    // the precomputed values are bitwise identical to the per-call ones.
    inv_res_.push_back(1.0 / jn.resistance);
    const double g =
        1.0 / (kElementaryCharge * kElementaryCharge * jn.resistance);
    chan_g_.push_back(g);
    chan_g_.push_back(g);
    if (superconducting_ && gap_ > 0.0) {
      ej_[j] = josephson_energy(jn.resistance, gap_, temperature_);
      cp_eta_[j] = default_cp_broadening(jn.resistance, gap_);
    }
    const double kaa = model.kappa_node(jn.a, jn.a);
    const double kbb = model.kappa_node(jn.b, jn.b);
    const double kab = model.kappa_node(jn.a, jn.b);
    u_.push_back(0.5 * e * e * (kaa + kbb - 2.0 * kab));
  }

  if (cotunneling_) {
    paths_ = enumerate_cotunneling_paths(circuit);
    const std::size_t n_paths = paths_.size();
    cot_u1_.reserve(n_paths);
    cot_u2_.reserve(n_paths);
    cot_kff_.reserve(n_paths);
    cot_ktt_.reserve(n_paths);
    cot_kft_.reserve(n_paths);
    cot_r1_.reserve(n_paths);
    cot_r2_.reserve(n_paths);
    for (const CotunnelingPath& p : paths_) {
      cot_u1_.push_back(u_[p.j1]);
      cot_u2_.push_back(u_[p.j2]);
      cot_kff_.push_back(model.kappa_node(p.from, p.from));
      cot_ktt_.push_back(model.kappa_node(p.to, p.to));
      cot_kft_.push_back(model.kappa_node(p.from, p.to));
      cot_r1_.push_back(resistance_[p.j1]);
      cot_r2_.push_back(resistance_[p.j2]);
    }
  }
  if (superconducting_ && gap_ > 0.0) {
    QuasiparticleRate::Params p;
    p.resistance = 1.0;  // unit shape; scaled by 1/R per junction
    p.delta1 = gap_;
    p.delta2 = gap_;
    p.temperature = temperature_;
    qp_unit_ = std::make_shared<const QuasiparticleRate>(p);
  }
}

void RateCalculator::build_qp_table(
    double half_range, std::shared_ptr<const QuasiparticleRate> shared) {
  if (!qp_unit_) return;
  require(half_range > 0.0, "build_qp_table: non-positive range");
  if (shared && shared->tabulates(qp_unit_->params(), -half_range, half_range)) {
    qp_unit_ = std::move(shared);
    return;
  }
  auto table = std::make_shared<QuasiparticleRate>(qp_unit_->params());
  table->build_table(-half_range, half_range);
  qp_unit_ = std::move(table);
}

ChannelRates RateCalculator::junction_rates(std::size_t j, double va,
                                            double vb) const {
  const double res = resistance_[j];
  const double e = kElementaryCharge;
  ChannelRates r;
  // Electron charge -e transferred a->b (forward) / b->a (backward), Eq. 2.
  r.dw_fw = -e * (vb - va) + u_[j];
  r.dw_bw = e * (vb - va) + u_[j];
  if (qp_unit_) {
    const double scale = 1.0 / res;
    r.rate_fw = qp_unit_->rate_cached(r.dw_fw) * scale;
    r.rate_bw = qp_unit_->rate_cached(r.dw_bw) * scale;
  } else {
    r.rate_fw = orthodox_rate(r.dw_fw, res, temperature_);
    r.rate_bw = orthodox_rate(r.dw_bw, res, temperature_);
  }
  return r;
}

void RateCalculator::delta_w_batch(const double* v,
                                   const std::uint32_t* slot_a,
                                   const std::uint32_t* slot_b,
                                   std::size_t n_junc,
                                   double* dw) const noexcept {
  // Bitwise contract with junction_rates: identical expression forms,
  // identical association, compiled in the same TU (so contraction choices
  // match). `-e * dv + u` must stay in exactly this shape.
  const double e = kElementaryCharge;
  const double* u = u_.data();
  for (std::size_t j = 0; j < n_junc; ++j) {
    const double dv = v[slot_b[j]] - v[slot_a[j]];
    dw[2 * j] = -e * dv + u[j];
    dw[2 * j + 1] = e * dv + u[j];
  }
}

void RateCalculator::delta_w_flagged(const double* v,
                                     const std::uint32_t* slot_a,
                                     const std::uint32_t* slot_b,
                                     const std::size_t* junctions,
                                     std::size_t n_flagged,
                                     double* dw) const noexcept {
  const double e = kElementaryCharge;
  const double* u = u_.data();
  for (std::size_t i = 0; i < n_flagged; ++i) {
    const std::size_t j = junctions[i];
    const double dv = v[slot_b[j]] - v[slot_a[j]];
    dw[2 * i] = -e * dv + u[j];
    dw[2 * i + 1] = e * dv + u[j];
  }
}

std::size_t RateCalculator::flagged_rates_fused(
    const double* v, const std::uint32_t* slot_a, const std::uint32_t* slot_b,
    const std::size_t* junctions, std::size_t n_flagged, double* dw_store,
    double* rates_out, RateMemoLine* memo) const noexcept {
  // Same ΔW expressions as delta_w_flagged (same TU, same association), and
  // the same per-element rate expressions as the batch kernel:
  //   T = 0   : max(-dw, 0) * g            (products only — contraction-free)
  //   thermal : kt * x_over_expm1(dw/kt) * g
  // x_over_expm1 is shared inline code, so evaluating here instead of
  // physics/rates.cpp cannot change a bit; the memo returns the thermal
  // expression's own bits (memo_thermal_rate).
  const double e = kElementaryCharge;
  const double* u = u_.data();
  const double* g = chan_g_.data();
  const double kt = kt_;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n_flagged; ++i) {
    const std::size_t j = junctions[i];
    if (i + 1 < n_flagged) {
      const std::size_t jn = junctions[i + 1];
      __builtin_prefetch(&g[2 * jn]);
      __builtin_prefetch(&dw_store[2 * jn]);
    }
    const double dv = v[slot_b[j]] - v[slot_a[j]];
    const double dw_fw = -e * dv + u[j];
    const double dw_bw = e * dv + u[j];
    dw_store[2 * j] = dw_fw;
    dw_store[2 * j + 1] = dw_bw;
    if (kt <= 0.0) {
      rates_out[2 * i] = std::max(-dw_fw, 0.0) * g[2 * j];
      rates_out[2 * i + 1] = std::max(-dw_bw, 0.0) * g[2 * j + 1];
    } else if (memo) {
      rates_out[2 * i] =
          memo_thermal_rate(memo[2 * j], dw_fw, kt, g[2 * j], hits);
      rates_out[2 * i + 1] =
          memo_thermal_rate(memo[2 * j + 1], dw_bw, kt, g[2 * j + 1], hits);
    } else {
      rates_out[2 * i] = kt * x_over_expm1(dw_fw / kt) * g[2 * j];
      rates_out[2 * i + 1] = kt * x_over_expm1(dw_bw / kt) * g[2 * j + 1];
    }
  }
  return hits;
}

void RateCalculator::cotunneling_rates_batch(const double* v,
                                             const std::uint32_t* cot_slot,
                                             double* out) const noexcept {
  // Expression shapes are cotunneling_path_rate's verbatim; only the
  // per-path kappa_node/u_/resistance_ lookups are replaced by the SoA
  // constants gathered at construction (bitwise-identical values).
  const double e = kElementaryCharge;
  const std::size_t n_paths = paths_.size();
  for (std::size_t p = 0; p < n_paths; ++p) {
    const double v_from = v[cot_slot[3 * p]];
    const double v_via = v[cot_slot[3 * p + 1]];
    const double v_to = v[cot_slot[3 * p + 2]];
    const double e1 = -e * (v_via - v_from) + cot_u1_[p];
    const double e2 = -e * (v_to - v_via) + cot_u2_[p];
    if (e1 <= 0.0 || e2 <= 0.0) {
      out[p] = 0.0;
      continue;
    }
    const double dw_total =
        -e * (v_to - v_from) +
        0.5 * e * e * (cot_kff_[p] + cot_ktt_[p] - 2.0 * cot_kft_[p]);
    out[p] = cotunneling_rate(dw_total, e1, e2, cot_r1_[p], cot_r2_[p],
                              temperature_);
  }
}

void RateCalculator::qp_rates_from_dw(const double* dw, std::size_t n_junc,
                                      double* out) const {
  for (std::size_t j = 0; j < n_junc; ++j) {
    const double scale = inv_res_[j];
    out[2 * j] = qp_unit_->rate_cached(dw[2 * j]) * scale;
    out[2 * j + 1] = qp_unit_->rate_cached(dw[2 * j + 1]) * scale;
  }
}

ChannelRates RateCalculator::cooper_pair_rates(std::size_t j, double va,
                                               double vb) const {
  ChannelRates r;
  if (ej_[j] <= 0.0) return r;
  const double q = 2.0 * kElementaryCharge;
  // Pair charge -2e transferred: linear term doubles, charging term
  // quadruples relative to the single-electron u_j.
  r.dw_fw = -q * (vb - va) + 4.0 * u_[j];
  r.dw_bw = q * (vb - va) + 4.0 * u_[j];
  r.rate_fw = cooper_pair_rate(r.dw_fw, ej_[j], cp_eta_[j]);
  r.rate_bw = cooper_pair_rate(r.dw_bw, ej_[j], cp_eta_[j]);
  return r;
}

double RateCalculator::cotunneling_path_rate(const CotunnelingPath& path,
                                             double v_from, double v_via,
                                             double v_to) const {
  const double e = kElementaryCharge;
  // Intermediate-state costs: one electron does the first hop alone.
  const double u1 = u_[path.j1];
  const double u2 = u_[path.j2];
  const double e1 = -e * (v_via - v_from) + u1;  // hop from -> via first
  const double e2 = -e * (v_to - v_via) + u2;    // hop via -> to first
  if (e1 <= 0.0 || e2 <= 0.0) return 0.0;        // sequential channel open

  // Net transfer from -> to: charging term from kappa of the end nodes.
  const double kff = model_.kappa_node(path.from, path.from);
  const double ktt = model_.kappa_node(path.to, path.to);
  const double kft = model_.kappa_node(path.from, path.to);
  const double dw_total =
      -e * (v_to - v_from) + 0.5 * e * e * (kff + ktt - 2.0 * kft);

  const double r1 = resistance_[path.j1];
  const double r2 = resistance_[path.j2];
  return cotunneling_rate(dw_total, e1, e2, r1, r2, temperature_);
}

}  // namespace semsim
