#include "guard/integrity.h"

#include <cmath>
#include <cstdlib>

#include "base/constants.h"
#include "base/math_util.h"

namespace semsim {
namespace {

/// Relative tolerance for |fenwick.total() - fenwick.exact_total()|.
constexpr double kFenwickRelTol = 1e-6;

}  // namespace

void InvariantAuditor::arm(double sim_time, std::uint64_t events) {
  armed_at_ = std::chrono::steady_clock::now();
  watchdog_armed_ = options_.watchdog_seconds > 0.0;
  last_progress_time_ = sim_time;
  last_progress_event_ = events;
}

void InvariantAuditor::clear() {
  report_ = IntegrityReport{};
  watchdog_armed_ = false;
  last_progress_time_ = 0.0;
  last_progress_event_ = 0;
}

void InvariantAuditor::fail(ErrorCode code, const AuditView& view,
                            const std::string& detail) {
  IntegrityIssue issue;
  issue.code = code;
  issue.detail = detail;
  issue.at_event = view.events;
  issue.sim_time = view.sim_time;
  report_.issues.push_back(issue);
  if (category_of(code) == ErrorCategory::kTimeout)
    throw TimeoutError(code, detail);
  throw InvariantViolation(code, detail);
}

void InvariantAuditor::audit(const AuditView& view) {
  ++report_.audits_run;
  report_.last_audit_event = view.events;
  // Order matters only for which code surfaces when several checks would
  // fire at once; cheapest-to-diagnose first.
  check_watchdog(view);
  check_rates(view);
  check_delta_w(view);
  check_potentials(view);
  check_fenwick(view);
  check_charge(view);
  check_progress(view);
}

void InvariantAuditor::check_rates(const AuditView& view) {
  if (!view.rates) return;
  const std::size_t n = view.rates->size();
  for (std::size_t i = 0; i < n; ++i) {
    const double w = view.rates->value(i);
    if (!std::isfinite(w)) {
      fail(ErrorCode::kNonFiniteRate, view,
           "audit: channel " + std::to_string(i) + " rate is " +
               std::to_string(w));
    }
    if (w < 0.0) {
      fail(ErrorCode::kNegativeRate, view,
           "audit: channel " + std::to_string(i) + " rate is negative (" +
               std::to_string(w) + ")");
    }
  }
}

void InvariantAuditor::check_delta_w(const AuditView& view) {
  if (!view.delta_w) return;
  // Finiteness always: a NaN in the stored ΔW poisons the next batched
  // kernel evaluation (caught late, as a NaN rate) and — worse — silently
  // disables the adaptive staleness test for its junction, because NaN
  // comparisons are false and the junction then never re-flags. Surfaced
  // as the rate-finiteness family: the store IS the kernel input.
  for (std::size_t i = 0; i < view.n_delta_w; ++i) {
    if (!std::isfinite(view.delta_w[i])) {
      fail(ErrorCode::kNonFiniteRate, view,
           "audit: stored delta_w of channel " + std::to_string(i) + " is " +
               std::to_string(view.delta_w[i]));
    }
  }
  if (!view.delta_w_synced || !view.node_v || !view.charging_u ||
      !view.slot_a || !view.slot_b) {
    return;
  }
  // Synced recompute check: in non-adaptive mode every entry was just
  // re-derived from the exact potential cache, so an independent recompute
  // here must agree. The tolerance is relative and generous (the engine's
  // fused pass and this one live in different TUs, so contraction may
  // differ by an ulp); real corruption is NaN or orders of magnitude off.
  for (std::size_t j = 0; j < view.n_junctions && 2 * j + 1 < view.n_delta_w;
       ++j) {
    const double dv =
        view.node_v[view.slot_b[j]] - view.node_v[view.slot_a[j]];
    const double u = view.charging_u[j];
    const double fw = -kElementaryCharge * dv + u;
    const double bw = kElementaryCharge * dv + u;
    if (rel_diff(view.delta_w[2 * j], fw, 1e-30) > 1e-9 ||
        rel_diff(view.delta_w[2 * j + 1], bw, 1e-30) > 1e-9) {
      fail(ErrorCode::kDeltaWDrift, view,
           "audit: stored delta_w of junction " + std::to_string(j) +
               " (" + std::to_string(view.delta_w[2 * j]) + ", " +
               std::to_string(view.delta_w[2 * j + 1]) +
               ") drifted from recompute (" + std::to_string(fw) + ", " +
               std::to_string(bw) + ")");
    }
  }
}

void InvariantAuditor::check_potentials(const AuditView& view) {
  for (std::size_t k = 0; k < view.n_islands; ++k) {
    if (!std::isfinite(view.island_v[k])) {
      fail(ErrorCode::kNonFinitePotential, view,
           "audit: island " + std::to_string(k) + " potential is " +
               std::to_string(view.island_v[k]));
    }
  }
}

void InvariantAuditor::check_fenwick(const AuditView& view) {
  if (!view.rates || view.rates->size() == 0) return;
  const double incremental = view.rates->total();
  const double exact = view.rates->exact_total();
  double scale = std::abs(exact) > 1.0 ? std::abs(exact) : 1.0;
  if (view.rate_scale > scale) scale = view.rate_scale;
  if (!(std::abs(incremental - exact) <= kFenwickRelTol * scale)) {
    fail(ErrorCode::kFenwickDrift, view,
         "audit: Fenwick total " + std::to_string(incremental) +
             " drifted from exact recompute " + std::to_string(exact));
  }
}

void InvariantAuditor::check_charge(const AuditView& view) {
  if (!view.electrons || !view.transferred_e) return;
  // An electron tunneling a->b through junction j decrements transferred_e[j]
  // by 1 (charge in units of e) and increments electrons[b]: the expected
  // electron delta of an island is +sum(t_j - t0_j) over junctions where it
  // is endpoint a and -sum over junctions where it is endpoint b. Cooper
  // pairs (+-2) and cotunneling (recorded through both junctions crossed)
  // satisfy the same balance, so this check is solver-independent.
  // One pass over junctions scattering into a per-island scratch vector:
  // the check must stay O(islands + junctions), or large chain circuits pay
  // quadratic audit cost and the perf gate trips.
  charge_scratch_.assign(view.n_islands, 0.0);
  for (std::size_t j = 0; j < view.n_junctions; ++j) {
    const double dt = view.transferred_e[j] - view.base_transferred[j];
    if (view.slot_a[j] < view.n_islands) charge_scratch_[view.slot_a[j]] += dt;
    if (view.slot_b[j] < view.n_islands) charge_scratch_[view.slot_b[j]] -= dt;
  }
  for (std::size_t k = 0; k < view.n_islands; ++k) {
    const double expected = charge_scratch_[k];
    const double actual =
        static_cast<double>(view.electrons[k] - view.base_electrons[k]);
    if (std::abs(actual - expected) > 0.5) {
      fail(ErrorCode::kChargeNotConserved, view,
           "audit: island " + std::to_string(k) + " electron delta " +
               std::to_string(view.electrons[k] - view.base_electrons[k]) +
               " != junction transfer balance " + std::to_string(expected));
    }
  }
}

void InvariantAuditor::check_progress(const AuditView& view) {
  if (options_.no_progress_events == 0) return;
  if (view.sim_time > last_progress_time_) {
    last_progress_time_ = view.sim_time;
    last_progress_event_ = view.events;
    return;
  }
  if (view.events - last_progress_event_ >= options_.no_progress_events) {
    fail(ErrorCode::kNoProgress, view,
         "audit: simulation clock stuck at t = " +
             std::to_string(view.sim_time) + " s for " +
             std::to_string(view.events - last_progress_event_) + " events");
  }
}

void InvariantAuditor::check_watchdog(const AuditView& view) {
  if (!watchdog_armed_) return;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    armed_at_)
          .count();
  if (elapsed > options_.watchdog_seconds) {
    fail(ErrorCode::kWatchdogWallClock, view,
         "watchdog: run exceeded wall-clock budget of " +
             std::to_string(options_.watchdog_seconds) + " s (elapsed " +
             std::to_string(elapsed) + " s)");
  }
}

}  // namespace semsim
