// Wire envelope for the simulation service (src/serve/).
//
// One request is one newline-delimited JSON object, in the spirit of
// SEMLDB's POST /run_simulation payload: a verb plus, for `submit`, the
// netlist TEXT (the daemon parses it with the same strict parser the CLI
// uses) and the RunSpec of the run. The codec is symmetric —
// encode_request_envelope() is what the semsim_submit client sends,
// parse_request_envelope() is what the daemon accepts — and strict: unknown
// verbs, wrong schema tags, missing fields, and type mismatches are coded
// ParseErrors, and the parse itself runs under JsonParseLimits so a
// pathological payload is rejected, never crashed on.
//
// Schema `semsim.request/v1`:
//
//   {"schema":"semsim.request/v1","verb":"submit","priority":0,
//    "deadline_ms":60000,"client":"sweep-farm-3",          // both optional
//    "netlist":"num ext 2\n...","seed":1,"adaptive":true,"repeats":0,
//    "stop":{"max_events":0,"target_rel_error":0.0,"check_interval":0},
//    "retry":{"strict":false,"max_attempts":3},
//    "ensemble":{"replicas":64,"bg_spread":0.05,...},            // optional
//    "partition":{"clusters":2,"window":0,...},                 // optional
//    "fault":[{"kind":"nan_rate","unit":0,"at_event":50,...}]}   // tests
//   {"schema":"semsim.request/v1","verb":"status","job":3}
//   ... and likewise result / cancel / stats / ping / shutdown.
//
// Integer fields travel as JSON numbers and must be exactly representable
// as doubles (<= 2^53); out-of-range or fractional values are rejected.
// Every submit field except `netlist` is optional and defaults to the
// RunSpec default. A submit may still carry `"fast_rates":false`, as
// every client and journal record written before the approximate thermal
// kernel was retired does; `"fast_rates":true` is a coded rejection.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "analysis/run_spec.h"
#include "guard/fault.h"
#include "io/json.h"

namespace semsim {

/// One request line. A submit carries a RunSpec (analysis/run_spec.h) as
/// "seed", "adaptive", "stop", "retry" (only `strict` and `max_attempts`
/// travel) and the optional "ensemble" and "partition" objects, whose
/// scalar fields come from analysis/run_fields.inc. An absent object ==
/// a disabled spec, so requests older than either parse unchanged. The
/// "ensemble" object ignores unknown keys; "partition" is parsed STRICTLY
/// (an unknown key rejects the request), because a typo'd partition knob
/// must not silently run unpartitioned.
struct RequestEnvelope : RunSpec {
  static constexpr const char* kSchema = "semsim.request/v1";

  enum class Verb : std::uint8_t {
    kPing = 0,   ///< liveness probe; response carries the daemon schema tags
    kSubmit,     ///< enqueue a run; response carries the job id + fingerprint
    kStatus,     ///< job state + streaming partial results
    kResult,     ///< the completed job's RunResult document, verbatim
    kCancel,     ///< stop a queued/running job (checkpointing in-flight work)
    kStats,      ///< scheduler + cache counters
    kShutdown,   ///< stop the daemon (checkpointing the running job)
  };

  Verb verb = Verb::kPing;
  /// Target job for status / result / cancel.
  std::uint64_t job_id = 0;

  // ---- submit payload besides the spec ---------------------------------
  /// Higher runs first; ties run in submission order.
  int priority = 0;
  /// Wall-clock budget from submit (queue wait included) in milliseconds;
  /// 0 = none. An expired job fails with the coded
  /// `serve.deadline_exceeded` — never a hang, never misfiled as a crash.
  std::uint64_t deadline_ms = 0;
  /// Client identity for per-client in-flight caps ("" = anonymous).
  std::string client;
  /// SEMSIM input text (netlist/parser.h grammar), parsed server-side.
  std::string netlist;
  /// Overrides the netlist's `jumps` repeat count when > 0.
  std::uint32_t repeats = 0;
  /// Deterministic fault schedule (guard/fault.h). A testing hook: CI and
  /// the equivalence suite use it to drive the degraded-unit paths through
  /// the full wire protocol. Empty for production requests.
  FaultPlan fault;
};

/// Stable verb spelling used on the wire ("submit", "status", ...).
const char* verb_name(RequestEnvelope::Verb verb) noexcept;

/// Serializes an envelope to one JSON line (no trailing newline).
std::string encode_request_envelope(const RequestEnvelope& env);

/// Parses and validates one request line under `limits`. Throws ParseError
/// (coded) on schema/verb/type violations and on breached limits.
RequestEnvelope parse_request_envelope(std::string_view line,
                                       const JsonParseLimits& limits = {});

/// `"<key>":{...}` holding the scalar fields of `spec` in run_fields.inc
/// order: the submit envelope's "ensemble" object and the result
/// document's ensemble "spec" echo (analysis/api.cpp). A non-finite double
/// has no JSON spelling and is left out; parsing restores the default
/// (yield_max's +inf).
void write_ensemble_object(JsonWriter& w, std::string_view key,
                           const EnsembleSpec& spec);
/// `"partition":{...}` holding every scalar field of `spec`: the submit
/// envelope's object and the result document's echo. A non-finite value
/// encodes as null, which parse_request_envelope rejects; a partitioned
/// run validates its spec, so no document holds one.
void write_partition_object(JsonWriter& w, const PartitionSpec& spec);

}  // namespace semsim
