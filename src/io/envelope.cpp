#include "io/envelope.h"

#include <cmath>

#include "base/error.h"

namespace semsim {

namespace {

/// Largest integer every double can represent exactly; fields above this
/// cannot round-trip through a JSON number and are rejected.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

[[noreturn]] void bad(const std::string& message) {
  throw ParseError(ErrorCode::kParseSyntax, "request envelope: " + message);
}

std::uint64_t as_u64(const JsonValue& v, const char* field) {
  double d = 0.0;
  try {
    d = v.as_number();
  } catch (const Error&) {
    bad(std::string(field) + " must be a number");
  }
  if (!(d >= 0.0) || d > kMaxExactInt || d != std::floor(d)) {
    bad(std::string(field) + " must be a non-negative integer <= 2^53");
  }
  return static_cast<std::uint64_t>(d);
}

std::uint64_t u64_field(const JsonValue& obj, const char* field,
                        std::uint64_t fallback) {
  const JsonValue* v = obj.find(field);
  return v == nullptr ? fallback : as_u64(*v, field);
}

double f64_field(const JsonValue& obj, const char* field, double fallback) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr) return fallback;
  try {
    return v->as_number();
  } catch (const Error&) {
    bad(std::string(field) + " must be a number");
  }
}

bool bool_field(const JsonValue& obj, const char* field, bool fallback) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr) return fallback;
  try {
    return v->as_bool();
  } catch (const Error&) {
    bad(std::string(field) + " must be a boolean");
  }
}

struct VerbSpelling {
  RequestEnvelope::Verb verb;
  const char* name;
};

constexpr VerbSpelling kVerbs[] = {
    {RequestEnvelope::Verb::kPing, "ping"},
    {RequestEnvelope::Verb::kSubmit, "submit"},
    {RequestEnvelope::Verb::kStatus, "status"},
    {RequestEnvelope::Verb::kResult, "result"},
    {RequestEnvelope::Verb::kCancel, "cancel"},
    {RequestEnvelope::Verb::kStats, "stats"},
    {RequestEnvelope::Verb::kShutdown, "shutdown"},
};

struct FaultSpelling {
  FaultKind kind;
  const char* name;
};

constexpr FaultSpelling kFaultKinds[] = {
    {FaultKind::kNone, "none"},
    {FaultKind::kNanRate, "nan_rate"},
    {FaultKind::kInfRate, "inf_rate"},
    {FaultKind::kNegativeRate, "negative_rate"},
    {FaultKind::kNanPotential, "nan_potential"},
    {FaultKind::kCorruptCharge, "corrupt_charge"},
    {FaultKind::kCorruptDeltaW, "corrupt_delta_w"},
    {FaultKind::kStallClock, "stall_clock"},
    {FaultKind::kSleep, "sleep"},
};

const char* fault_kind_name(FaultKind kind) {
  for (const FaultSpelling& s : kFaultKinds) {
    if (s.kind == kind) return s.name;
  }
  return "none";
}

FaultKind fault_kind_from(const std::string& name) {
  for (const FaultSpelling& s : kFaultKinds) {
    if (name == s.name) return s.kind;
  }
  bad("unknown fault kind '" + name + "'");
}

EnsembleSpec parse_ensemble_object(const JsonValue& obj) {
  EnsembleSpec s;
  s.enabled = true;  // presence on the wire == enabled
#define SEMSIM_FIELD_PARSE_U64(member, json_name) \
  s.member = u64_field(obj, json_name, s.member);
#define SEMSIM_FIELD_PARSE_U32(member, json_name)                  \
  {                                                                \
    const std::uint64_t v = u64_field(obj, json_name, s.member);   \
    if (v > 0xFFFFFFFFULL) bad("ensemble." json_name " out of range"); \
    s.member = static_cast<std::uint32_t>(v);                      \
  }
#define SEMSIM_FIELD_PARSE_F64(member, json_name) \
  s.member = f64_field(obj, json_name, s.member);
#define SEMSIM_FIELD_PARSE_DIST(member, json_name)                        \
  if (const JsonValue* v = obj.find(json_name)) {                         \
    std::string name;                                                     \
    try {                                                                 \
      name = v->as_string();                                              \
    } catch (const Error&) {                                              \
      bad("ensemble." json_name " must be a string");                     \
    }                                                                     \
    if (!perturbation_dist_from(name, &s.member)) {                       \
      bad("ensemble." json_name ": unknown distribution '" + name + "'"); \
    }                                                                     \
  }
#define SEMSIM_ENSEMBLE_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_PARSE_##KIND(member, json_name)
#include "analysis/run_fields.inc"
#undef SEMSIM_FIELD_PARSE_U64
#undef SEMSIM_FIELD_PARSE_U32
#undef SEMSIM_FIELD_PARSE_F64
#undef SEMSIM_FIELD_PARSE_DIST
  // EnsembleSpec::validate, as coded ParseErrors so the daemon rejects
  // the line instead of failing the job.
  try {
    s.validate();
  } catch (const Error& e) {
    bad(e.message());
  }
  return s;
}

/// STRICT parse: unlike the ensemble object (whose unknown keys are
/// ignored for forward compatibility), an unknown key inside "partition"
/// rejects the request. The spec controls how the run decomposes; a typo'd
/// knob silently running unpartitioned would look like a performance bug.
PartitionSpec parse_partition_object(const JsonValue& obj) {
  if (!obj.is_object()) bad("partition must be an object");
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool known = false;
#define SEMSIM_PARTITION_FIELD(ident, member, KIND, json_name, cli_flag) \
  if (key == json_name) known = true;
#include "analysis/run_fields.inc"
    if (!known) bad("partition: unknown field '" + key + "'");
  }

  PartitionSpec s;
  s.enabled = true;  // presence on the wire == enabled
#define SEMSIM_FIELD_PARSE_U64(member, json_name) \
  s.member = u64_field(obj, json_name, s.member);
#define SEMSIM_FIELD_PARSE_U32(member, json_name)                        \
  {                                                                      \
    const std::uint64_t v = u64_field(obj, json_name, s.member);         \
    if (v > 0xFFFFFFFFULL) bad("partition." json_name " out of range");  \
    s.member = static_cast<std::uint32_t>(v);                            \
  }
#define SEMSIM_FIELD_PARSE_F64(member, json_name) \
  s.member = f64_field(obj, json_name, s.member);
#define SEMSIM_PARTITION_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_PARSE_##KIND(member, json_name)
#include "analysis/run_fields.inc"
#undef SEMSIM_FIELD_PARSE_U64
#undef SEMSIM_FIELD_PARSE_U32
#undef SEMSIM_FIELD_PARSE_F64
  // PartitionSpec::validate, as coded ParseErrors so the daemon rejects
  // the line instead of failing the job.
  try {
    s.validate();
  } catch (const Error& e) {
    bad(e.message());
  }
  return s;
}

}  // namespace

// ---- spec objects (field sets generated from analysis/run_fields.inc) -----

#define SEMSIM_FIELD_WRITE_U64(member, json_name) w.field(json_name, s.member);
#define SEMSIM_FIELD_WRITE_U32(member, json_name) \
  w.field(json_name, unsigned{s.member});
#define SEMSIM_FIELD_WRITE_DIST(member, json_name) \
  w.field(json_name, perturbation_dist_name(s.member));

void write_ensemble_object(JsonWriter& w, std::string_view key,
                           const EnsembleSpec& s) {
  w.key(key).begin_object();
#define SEMSIM_FIELD_WRITE_F64(member, json_name) \
  if (std::isfinite(s.member)) w.field(json_name, s.member);
#define SEMSIM_ENSEMBLE_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_WRITE_##KIND(member, json_name)
#include "analysis/run_fields.inc"
#undef SEMSIM_FIELD_WRITE_F64
  w.end_object();
}

void write_partition_object(JsonWriter& w, const PartitionSpec& s) {
  w.key("partition").begin_object();
#define SEMSIM_FIELD_WRITE_F64(member, json_name) w.field(json_name, s.member);
#define SEMSIM_PARTITION_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_WRITE_##KIND(member, json_name)
#include "analysis/run_fields.inc"
#undef SEMSIM_FIELD_WRITE_F64
  w.end_object();
}

#undef SEMSIM_FIELD_WRITE_U64
#undef SEMSIM_FIELD_WRITE_U32
#undef SEMSIM_FIELD_WRITE_DIST

const char* verb_name(RequestEnvelope::Verb verb) noexcept {
  for (const VerbSpelling& s : kVerbs) {
    if (s.verb == verb) return s.name;
  }
  return "ping";
}

std::string encode_request_envelope(const RequestEnvelope& env) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", RequestEnvelope::kSchema);
  w.field("verb", verb_name(env.verb));
  switch (env.verb) {
    case RequestEnvelope::Verb::kStatus:
    case RequestEnvelope::Verb::kResult:
    case RequestEnvelope::Verb::kCancel:
      w.field("job", env.job_id);
      break;
    case RequestEnvelope::Verb::kSubmit: {
      w.field("priority", std::int64_t{env.priority});
      if (env.deadline_ms > 0) w.field("deadline_ms", env.deadline_ms);
      if (!env.client.empty()) w.field("client", env.client);
      w.field("netlist", env.netlist);
      w.field("seed", env.seed);
      w.field("adaptive", env.adaptive);
      if (env.repeats > 0) w.field("repeats", unsigned{env.repeats});
      w.key("stop").begin_object();
      w.field("max_events", env.stop.max_events);
      w.field("target_rel_error", env.stop.target_rel_error);
      w.field("check_interval", env.stop.check_interval);
      w.end_object();
      w.key("retry").begin_object();
      w.field("strict", env.retry.strict);
      w.field("max_attempts", unsigned{env.retry.max_attempts});
      w.end_object();
      if (env.ensemble.enabled) {
        write_ensemble_object(w, "ensemble", env.ensemble);
      }
      if (env.partition.enabled) write_partition_object(w, env.partition);
      if (!env.fault.empty()) {
        w.key("fault").begin_array();
        for (const FaultSpec& f : env.fault.faults) {
          w.begin_object();
          w.field("kind", fault_kind_name(f.kind));
          if (f.unit != FaultSpec::kAnyUnit) w.field("unit", f.unit);
          if (f.attempt != FaultSpec::kAnyAttempt) {
            w.field("attempt", unsigned{f.attempt});
          }
          w.field("at_event", f.at_event);
          w.field("index", std::uint64_t{f.index});
          w.field("value", f.value);
          w.field("millis", unsigned{f.millis});
          w.field("sticky", f.sticky);
          w.end_object();
        }
        w.end_array();
      }
      break;
    }
    case RequestEnvelope::Verb::kPing:
    case RequestEnvelope::Verb::kStats:
    case RequestEnvelope::Verb::kShutdown:
      break;
  }
  w.end_object();
  return w.take();
}

RequestEnvelope parse_request_envelope(std::string_view line,
                                       const JsonParseLimits& limits) {
  const JsonValue doc = JsonValue::parse(line, limits);
  if (!doc.is_object()) bad("document must be a JSON object");

  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr) bad("missing 'schema'");
  if (schema->as_string() != RequestEnvelope::kSchema) {
    bad("unsupported schema '" + schema->as_string() + "' (expected " +
        std::string(RequestEnvelope::kSchema) + ")");
  }

  const JsonValue* verb = doc.find("verb");
  if (verb == nullptr) bad("missing 'verb'");

  RequestEnvelope env;
  bool known = false;
  for (const VerbSpelling& s : kVerbs) {
    if (verb->as_string() == s.name) {
      env.verb = s.verb;
      known = true;
      break;
    }
  }
  if (!known) bad("unknown verb '" + verb->as_string() + "'");

  switch (env.verb) {
    case RequestEnvelope::Verb::kStatus:
    case RequestEnvelope::Verb::kResult:
    case RequestEnvelope::Verb::kCancel: {
      const JsonValue* job = doc.find("job");
      if (job == nullptr) bad("missing 'job'");
      env.job_id = as_u64(*job, "job");
      break;
    }
    case RequestEnvelope::Verb::kSubmit: {
      const JsonValue* netlist = doc.find("netlist");
      if (netlist == nullptr) bad("submit: missing 'netlist'");
      try {
        env.netlist = netlist->as_string();
      } catch (const Error&) {
        bad("netlist must be a string");
      }
      if (env.netlist.empty()) bad("submit: empty 'netlist'");

      if (const JsonValue* p = doc.find("priority")) {
        double d = 0.0;
        try {
          d = p->as_number();
        } catch (const Error&) {
          bad("priority must be a number");
        }
        if (d != std::floor(d) || d < -1e6 || d > 1e6) {
          bad("priority must be an integer in [-1e6, 1e6]");
        }
        env.priority = static_cast<int>(d);
      }
      env.deadline_ms = u64_field(doc, "deadline_ms", 0);
      if (const JsonValue* client = doc.find("client")) {
        try {
          env.client = client->as_string();
        } catch (const Error&) {
          bad("client must be a string");
        }
        if (env.client.size() > 256) bad("client id longer than 256 bytes");
      }
      env.seed = u64_field(doc, "seed", env.seed);
      env.adaptive = bool_field(doc, "adaptive", env.adaptive);
      if (bool_field(doc, "fast_rates", false)) {
        bad("fast_rates: the approximate thermal kernel is retired; only "
            "false is accepted");
      }
      const std::uint64_t repeats = u64_field(doc, "repeats", 0);
      if (repeats > 0xFFFFFFFFULL) bad("repeats out of range");
      env.repeats = static_cast<std::uint32_t>(repeats);

      if (const JsonValue* stop = doc.find("stop")) {
        if (!stop->is_object()) bad("'stop' must be an object");
        env.stop.max_events =
            u64_field(*stop, "max_events", env.stop.max_events);
        env.stop.target_rel_error = f64_field(*stop, "target_rel_error",
                                              env.stop.target_rel_error);
        env.stop.check_interval =
            u64_field(*stop, "check_interval", env.stop.check_interval);
        if (env.stop.target_rel_error < 0.0 ||
            !std::isfinite(env.stop.target_rel_error)) {
          bad("stop.target_rel_error must be finite and >= 0");
        }
      }
      if (const JsonValue* retry = doc.find("retry")) {
        if (!retry->is_object()) bad("'retry' must be an object");
        env.retry.strict = bool_field(*retry, "strict", env.retry.strict);
        const std::uint64_t attempts =
            u64_field(*retry, "max_attempts", env.retry.max_attempts);
        if (attempts == 0 || attempts > 0xFFFFFFFFULL) {
          bad("retry.max_attempts must be in [1, 2^32)");
        }
        env.retry.max_attempts = static_cast<std::uint32_t>(attempts);
      }
      if (const JsonValue* ensemble = doc.find("ensemble")) {
        if (!ensemble->is_object()) bad("'ensemble' must be an object");
        env.ensemble = parse_ensemble_object(*ensemble);
      }
      if (const JsonValue* partition = doc.find("partition")) {
        env.partition = parse_partition_object(*partition);
      }
      if (const JsonValue* fault = doc.find("fault")) {
        if (!fault->is_array()) bad("'fault' must be an array");
        for (const JsonValue& item : fault->items()) {
          if (!item.is_object()) bad("fault entries must be objects");
          FaultSpec spec;
          const JsonValue* kind = item.find("kind");
          if (kind == nullptr) bad("fault entry missing 'kind'");
          spec.kind = fault_kind_from(kind->as_string());
          spec.unit = u64_field(item, "unit", FaultSpec::kAnyUnit);
          const std::uint64_t attempt =
              u64_field(item, "attempt", FaultSpec::kAnyAttempt);
          spec.attempt = attempt > 0xFFFFFFFFULL
                             ? FaultSpec::kAnyAttempt
                             : static_cast<std::uint32_t>(attempt);
          spec.at_event = u64_field(item, "at_event", 0);
          spec.index = static_cast<std::size_t>(u64_field(item, "index", 0));
          spec.value = f64_field(item, "value", 0.0);
          const std::uint64_t millis = u64_field(item, "millis", 0);
          if (millis > 0xFFFFFFFFULL) bad("fault millis out of range");
          spec.millis = static_cast<std::uint32_t>(millis);
          spec.sticky = bool_field(item, "sticky", false);
          env.fault.faults.push_back(spec);
        }
      }
      break;
    }
    case RequestEnvelope::Verb::kPing:
    case RequestEnvelope::Verb::kStats:
    case RequestEnvelope::Verb::kShutdown:
      break;
  }
  return env;
}

}  // namespace semsim
