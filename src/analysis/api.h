// The single stable entry point for running a simulation: one
// request/response pair in the style of the ALPS/VWSIM simulation facades,
// shared by the CLI, the service daemon and the examples, so none of them
// assembles Engine + EngineOptions + StopCriterion by hand:
//
//   RunRequest req;
//   req.input = parse_simulation_file("set.sem");
//   req.seed = 42;
//   RunResult res = run(req);
//   res.to_json();   // versioned machine-readable document
//
// plus the two helpers the drivers themselves are built on —
// engine_options_for() (one place that maps input + options to
// EngineOptions) and unit_engine_options() (one place that seeds a work
// unit's engine from (base_seed, unit, attempt)).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/driver.h"
#include "core/engine.h"

namespace semsim {

/// Everything that defines a run: the parsed input (circuit + directives)
/// plus every run option. A RunRequest IS the DriverOptions of its run
/// (analysis/driver.h: the RunSpec of analysis/run_spec.h plus how the run
/// executes); the request adds only the input.
struct RunRequest : DriverOptions {
  SimulationInput input;

  /// The request's options, for callers that spell the conversion.
  const DriverOptions& driver_options() const { return *this; }
  /// The EngineOptions every engine of this run starts from.
  EngineOptions engine_options() const;
  /// Run identity hash: run_fingerprint(input, *this).
  std::uint64_t fingerprint() const;
};

/// A completed run: the driver payload plus the request identity, ready to
/// serialize.
struct RunResult {
  /// Version tag carried by every to_json() document. Bump the suffix when
  /// a field changes meaning or disappears; adding fields is compatible.
  /// v2 (integrity layer): sweep rows carry a "status" string, and the
  /// document gains "integrity" (audit trail) and "failures" (degraded
  /// work units). Every v1 field is still present with the same meaning,
  /// so v1 readers that ignore unknown fields keep working.
  /// v3 (ensemble engine): the document MAY carry an "ensemble" object —
  /// the spec echo, per-replica rows, and cross-replica band statistics.
  /// Absent "ensemble" == a single-device run == exactly the v2 shape, so
  /// v2 readers keep working and v2 documents remain parseable.
  /// "fast_rates" is always false: it named an approximate thermal kernel
  /// that no longer exists, and it stays so that no v3 field disappears.
  static constexpr const char* kJsonSchema = "semsim.run_result/v3";

  DriverResult driver;
  std::uint64_t fingerprint = 0;  ///< RunRequest::fingerprint() of the run
  /// The request's spec, echoed by the document: "seed", "adaptive", the
  /// v3 "ensemble" object's "spec" (ensemble runs only) and the optional
  /// "partition" object (absent when disabled; absent == exactly the
  /// pre-partition shape, same compatibility rule as "ensemble").
  RunSpec spec;
  unsigned threads = 1;

  /// Versioned machine-readable document: schema tag, run identity
  /// (fingerprint as a hex string — JSON numbers cannot carry 64 bits),
  /// currents with rel_err/tau_int/events, sweep table, solver stats and
  /// run counters. Parse with JsonValue::parse (io/json.h).
  ///
  /// `canonical` omits the fields that depend on the execution environment
  /// rather than the run identity — the top-level "threads" and the
  /// counters' "threads"/"wall_seconds" — making the document a pure
  /// function of the fingerprinted inputs. Two runs of the same request are
  /// byte-identical canonical documents at ANY thread count; the service
  /// daemon stores and serves this form, and CLI --canonical-json emits it
  /// for golden comparisons.
  std::string to_json(bool canonical = false) const;
};

/// The run fingerprint the way every JSON document spells it: 16 lowercase
/// hex digits, zero-padded (u64 identities cannot travel as JSON numbers).
std::string fingerprint_hex(std::uint64_t fingerprint);

/// Runs the simulation a request describes. Throws on structurally invalid
/// inputs, exactly like run_simulation.
RunResult run(const RunRequest& request);

/// One place that derives the engine configuration from a parsed input and
/// driver options: temperature and cotunneling come from the input file,
/// solver choice and base seed from the options.
EngineOptions engine_options_for(const SimulationInput& input,
                                 const DriverOptions& options);

/// EngineOptions for attempt `attempt` of work unit `unit`: `base` with its
/// seed replaced by retry_stream_seed(base_seed, unit, attempt) — exactly
/// derive_stream_seed(base_seed, unit) for attempt 0 — and its fault
/// injector rebound to (unit, attempt) so scheduled faults target the right
/// engine instance and do not re-fire on retries.
EngineOptions unit_engine_options(const EngineOptions& base,
                                  std::uint64_t base_seed, std::size_t unit,
                                  std::uint32_t attempt = 0);

}  // namespace semsim
