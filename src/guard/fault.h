// Deterministic fault injection for testing the integrity layer.
//
// A FaultPlan is a list of FaultSpecs, each naming a fault kind, the
// (unit, attempt) it targets, and the event index at which it fires. The
// engine owns a FaultInjector — a cursor over the plan bound to one
// concrete (unit, attempt) — and polls it once per executed event. With no
// plan armed the poll is a single null-pointer test, so production runs pay
// nothing; tests and benches arm plans to prove that every detection path
// in the auditor actually fires with the right error code, instead of
// trusting checks that have never seen a bad value.
//
// Injection is deterministic by construction (keyed on unit/attempt/event
// counters, never on wall clock or RNG draws), so a fault-then-retry
// sequence replays bitwise identically at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semsim {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kNanRate,         ///< overwrite one channel's rate with NaN
  kInfRate,         ///< overwrite one channel's rate with +inf
  kNegativeRate,    ///< overwrite one channel's rate with a negative value
  kNanPotential,    ///< poison one island potential with NaN
  kCorruptCharge,   ///< silently add an electron to one island
  /// Poison the stored per-channel ΔW pair of the junction owning channel
  /// `index` (value payload, NaN when `value` == 0). In adaptive mode a
  /// NaN ΔW silently disables the junction's staleness test (NaN compares
  /// false), so detection must come from the auditor's delta_w checks; in
  /// non-adaptive mode the next fused ΔW pass overwrites the slot before
  /// any kernel reads it, so the fault is self-healing there.
  kCorruptDeltaW,
  kStallClock,      ///< freeze the simulation clock (dt forced to zero)
  kSleep,           ///< block the thread for `millis` (watchdog tests)
};

/// One scheduled fault. `unit` and `attempt` select which engine instance
/// it targets (kAnyUnit / kAnyAttempt match all); `at_event` is the engine
/// event count at which it fires; `index` is the channel / island it
/// poisons where applicable.
struct FaultSpec {
  static constexpr std::uint64_t kAnyUnit = ~std::uint64_t{0};
  static constexpr std::uint32_t kAnyAttempt = ~std::uint32_t{0};

  FaultKind kind = FaultKind::kNone;
  std::uint64_t unit = kAnyUnit;
  std::uint32_t attempt = kAnyAttempt;
  std::uint64_t at_event = 0;    ///< fires when stats.events == at_event
  std::size_t index = 0;         ///< target channel / island
  double value = 0.0;            ///< payload for kNegativeRate / kCorruptDeltaW
  std::uint32_t millis = 0;      ///< sleep duration for kSleep
  bool sticky = false;           ///< keep firing every event once triggered
};

/// Immutable schedule of faults, shared by all engines in a run.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const noexcept { return faults.empty(); }
};

/// A FaultPlan bound to one engine instance (unit, attempt). The engine
/// calls next(events) once per executed event; a non-null result is the
/// fault to apply now. Copyable and cheap: it holds only a pointer and
/// counters, so EngineOptions can carry it by value.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultPlan* plan, std::uint64_t unit,
                std::uint32_t attempt)
      : plan_(plan && !plan->empty() ? plan : nullptr),
        unit_(unit),
        attempt_(attempt) {}

  bool armed() const noexcept { return plan_ != nullptr; }

  /// Rebind to a concrete (unit, attempt). The drivers carry one
  /// caller-supplied injector in the base EngineOptions and rebind it per
  /// work unit, so a plan targeting unit 3 fires only in unit 3's engine,
  /// and per attempt, so a fault scheduled for attempt 0 does not re-fire
  /// on the retry.
  FaultInjector for_unit(std::uint64_t unit,
                         std::uint32_t attempt) const noexcept {
    FaultInjector copy = *this;
    copy.unit_ = unit;
    copy.attempt_ = attempt;
    return copy;
  }

  /// Returns the first fault scheduled for this (unit, attempt) at event
  /// count `events`, or nullptr. Sticky faults match every event at or
  /// after their trigger point.
  const FaultSpec* next(std::uint64_t events) const noexcept {
    if (!plan_) return nullptr;
    for (const FaultSpec& f : plan_->faults) {
      if (f.kind == FaultKind::kNone) continue;
      if (f.unit != FaultSpec::kAnyUnit && f.unit != unit_) continue;
      if (f.attempt != FaultSpec::kAnyAttempt && f.attempt != attempt_)
        continue;
      if (f.sticky ? events >= f.at_event : events == f.at_event) return &f;
    }
    return nullptr;
  }

 private:
  const FaultPlan* plan_ = nullptr;
  std::uint64_t unit_ = 0;
  std::uint32_t attempt_ = 0;
};

}  // namespace semsim
