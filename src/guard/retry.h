// Fault-isolated retry policy for sweep points and repeat units.
//
// When one bias point of a long sweep throws a recoverable error (numeric,
// invariant, or timeout — see severity_of in base/error.h), the drivers in
// analysis/sweep rebuild the unit's engine with a RE-DERIVED RNG stream and
// try again instead of aborting the whole run. Determinism contract:
//
//   * attempt 0 uses exactly derive_stream_seed(base_seed, unit), so a run
//     where nothing fails is bitwise identical to a run without the retry
//     layer at any thread count;
//   * attempt k > 0 salts the unit seed with the attempt counter through a
//     SplitMix64 round, so the retried trajectory is a fresh independent
//     stream but still a pure function of (base_seed, unit, attempt) —
//     never of which thread retried.
//
// A retry starts as soon as its failed attempt has been torn down: the
// policy has no backoff.
#pragma once

#include <cstdint>

#include "base/error.h"
#include "base/random.h"

namespace semsim {

struct RetryPolicy {
  /// Fail-fast: rethrow the first per-unit error instead of isolating it
  /// (the pre-guard behavior; CLI --strict).
  bool strict = false;
  /// Total attempts per unit, including the first. 1 disables retry.
  std::uint32_t max_attempts = 3;

  /// True when `code` should be retried under this policy (never in strict
  /// mode, never for fatal categories like parse/circuit errors).
  bool should_retry(ErrorCode code, std::uint32_t attempts_done) const {
    return !strict && attempts_done < max_attempts && is_retryable(code);
  }
};

/// RNG stream seed for attempt `attempt` of work unit `unit`. Attempt 0
/// reproduces derive_stream_seed exactly (see contract above).
inline std::uint64_t retry_stream_seed(std::uint64_t base_seed,
                                       std::uint64_t unit,
                                       std::uint32_t attempt) noexcept {
  if (attempt == 0) return derive_stream_seed(base_seed, unit);
  return derive_stream_seed(
      splitmix64_mix(base_seed ^ (0xA5A5'5A5A'0F0F'F0F0ULL +
                                  static_cast<std::uint64_t>(attempt))),
      unit);
}

/// Sleeps for `seconds` (no-op for <= 0); the kSleep fault's stall.
void retry_sleep(double seconds);

}  // namespace semsim
