// The EnsembleSpec wire/option types, split from analysis/ensemble.h so the
// service envelope codec (io/envelope.cpp — semsim_io, which semsim_analysis
// links, not the reverse) can carry the spec without pulling the simulation
// headers or a link-time cycle into the io layer. Everything here is
// header-only, EnsembleSpec::validate included, so the codec rejects at
// parse time exactly the specs run_ensemble would.
//
// See analysis/ensemble.h for the full ensemble contract and
// analysis/run_fields.inc for the single-source field table these scalars
// are declared in.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "base/error.h"

namespace semsim {

/// One perturbed parameter: the distribution the per-replica draw comes
/// from and its width. For the relative parameters (R, C, temperature) the
/// draw z scales the nominal value by max(1 + spread * z, floor); for the
/// background charge it adds spread * z electrons of offset.
struct PerturbationSpec {
  enum class Dist : std::uint8_t { kGaussian = 0, kUniform = 1 };

  double spread = 0.0;  ///< sigma (gaussian) or half-width (uniform); >= 0
  Dist dist = Dist::kGaussian;

  bool active() const noexcept { return spread > 0.0; }
};

/// Wire spelling of a perturbation distribution ("gaussian" / "uniform").
inline const char* perturbation_dist_name(PerturbationSpec::Dist dist) noexcept {
  return dist == PerturbationSpec::Dist::kUniform ? "uniform" : "gaussian";
}
/// Inverse of perturbation_dist_name; returns false on an unknown spelling.
inline bool perturbation_dist_from(const std::string& name,
                                   PerturbationSpec::Dist* out) noexcept {
  if (name == "gaussian") {
    *out = PerturbationSpec::Dist::kGaussian;
    return true;
  }
  if (name == "uniform") {
    *out = PerturbationSpec::Dist::kUniform;
    return true;
  }
  return false;
}

struct EnsembleSpec {
  /// Presence flag: a request without an ensemble section is exactly a
  /// disabled spec, and a disabled spec contributes nothing to the run
  /// fingerprint or the result document (v2 compatibility).
  bool enabled = false;

  std::uint32_t replicas = 1;
  /// Ensemble seed; 0 = derive the replica streams from the run seed.
  std::uint64_t seed = 0;

  PerturbationSpec bg_charge;    ///< absolute offset, units of e
  PerturbationSpec resistance;   ///< relative junction-R spread
  PerturbationSpec capacitance;  ///< relative junction-C + capacitor spread
  PerturbationSpec temperature;  ///< relative operating-temperature spread

  /// Yield window on |observable| (the mean current of a measurement run;
  /// the peak |I| of a sweep replica). A replica counts toward the yield
  /// fraction when it completed ok AND yield_min <= |obs| <= yield_max;
  /// the defaults make yield == ok-fraction.
  double yield_min = 0.0;
  double yield_max = std::numeric_limits<double>::infinity();

  bool has_yield_window() const noexcept {
    return yield_min > 0.0 || std::isfinite(yield_max);
  }

  /// Throws Error on structural nonsense (0 replicas, negative or
  /// non-finite spreads, inverted yield window).
  void validate() const {
    require(replicas >= 1, "ensemble: replicas must be >= 1");
    const std::pair<const PerturbationSpec*, const char*> spreads[] = {
        {&bg_charge, "bg_charge"},
        {&resistance, "resistance"},
        {&capacitance, "capacitance"},
        {&temperature, "temperature"}};
    for (const auto& [p, name] : spreads) {
      if (!(std::isfinite(p->spread) && p->spread >= 0.0)) {
        throw Error(std::string("ensemble: ") + name +
                    " spread must be finite and >= 0");
      }
    }
    require(std::isfinite(yield_min) && yield_min >= 0.0,
            "ensemble: yield_min must be finite and >= 0");
    require(yield_max > 0.0 && !std::isnan(yield_max),
            "ensemble: yield_max must be > 0");
    require(yield_min <= yield_max,
            "ensemble: yield window is inverted (yield_min > yield_max)");
  }
};

/// The seed every replica stream of this run derives from.
inline std::uint64_t ensemble_effective_seed(const EnsembleSpec& spec,
                                             std::uint64_t run_seed) noexcept {
  return spec.seed != 0 ? spec.seed : run_seed;
}

}  // namespace semsim
