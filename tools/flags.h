// Command-line flag parsing shared by the four tools (semsim, semsim_submit,
// semsim_serve, semsim_chaos). Every value flag accepts both
// `--flag VALUE` and `--flag=VALUE`. A malformed or out-of-range value
// prints `<flag>: <reason>: <value>` to stderr and exits 2 (kExitUsage)
// at once, before the tool reads an input or opens a connection.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/run_spec.h"
#include "guard/exit_codes.h"

namespace semsim {

[[noreturn]] inline void reject_flag(const char* flag, const char* reason,
                                     const std::string& text) {
  std::fprintf(stderr, "%s: %s: %s\n", flag, reason, text.c_str());
  std::exit(kExitUsage);
}

/// Matches `--name VALUE` (consuming the next argv) or `--name=VALUE`.
inline bool flag_value(const std::string& a, const char* name, int argc,
                       char** argv, int& i, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (a.compare(0, len, name) == 0 && a.size() > len && a[len] == '=') {
    *value = a.substr(len + 1);
    return true;
  }
  if (a == name && i + 1 < argc) {
    *value = argv[++i];
    return true;
  }
  return false;
}

/// Strict decimal parse; anything but a plain non-negative integer is fatal.
inline std::uint64_t parse_u64(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    reject_flag(flag, "not a non-negative integer", text);
  }
  return v;
}

/// A count in [1, 2^32): repeats, retry attempts, replicas, clusters.
inline std::uint32_t parse_count(const char* flag, const std::string& text) {
  const std::uint64_t n = parse_u64(flag, text);
  if (n == 0 || n > 0xFFFFFFFFULL) reject_flag(flag, "out of range", text);
  return static_cast<std::uint32_t>(n);
}

/// Strict signed decimal parse within [lo, hi].
inline long long parse_int(const char* flag, const std::string& text,
                           long long lo, long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    reject_flag(flag, "not an integer", text);
  }
  if (v < lo || v > hi) reject_flag(flag, "out of range", text);
  return v;
}

inline double parse_f64(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    reject_flag(flag, "not a number", text);
  }
  return v;
}

inline double parse_positive_f64(const char* flag, const std::string& text) {
  const double v = parse_f64(flag, text);
  if (!(v > 0.0)) reject_flag(flag, "must be > 0", text);
  return v;
}

inline PerturbationSpec::Dist parse_dist(const char* flag,
                                         const std::string& text) {
  PerturbationSpec::Dist d = PerturbationSpec::Dist::kGaussian;
  if (!perturbation_dist_from(text, &d)) {
    reject_flag(flag, "unknown distribution (gaussian|uniform)", text);
  }
  return d;
}

/// The run flags, shared by semsim and semsim_submit: every RunSpec field
/// (analysis/run_spec.h) plus `--repeats`, the `jumps` repeat override,
/// which edits the input rather than the spec. Returns true when `a` was
/// one of them (and consumed its value). The ensemble and partition flags
/// are generated from the SEMSIM_ENSEMBLE_FIELD and SEMSIM_PARTITION_FIELD
/// tables (analysis/run_fields.inc); passing any flag of a spec enables
/// it.
inline bool parse_run_flag(const std::string& a, int argc, char** argv,
                           int& i, RunSpec* spec, std::uint32_t* repeats) {
  std::string v;
#define SEMSIM_FIELD_CLI_U64 parse_u64
#define SEMSIM_FIELD_CLI_U32 parse_count
#define SEMSIM_FIELD_CLI_F64 parse_f64
#define SEMSIM_FIELD_CLI_DIST parse_dist
#define SEMSIM_SPEC_FLAG_(sub, member, flag, parse) \
  if (flag_value(a, flag, argc, argv, i, &v)) {     \
    spec->sub.member = parse(flag, v);              \
    spec->sub.enabled = true;                       \
    return true;                                    \
  }
#define SEMSIM_ENSEMBLE_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_SPEC_FLAG_(ensemble, member, cli_flag, SEMSIM_FIELD_CLI_##KIND)
#define SEMSIM_PARTITION_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_SPEC_FLAG_(partition, member, cli_flag, SEMSIM_FIELD_CLI_##KIND)
#include "analysis/run_fields.inc"
#undef SEMSIM_SPEC_FLAG_
#undef SEMSIM_FIELD_CLI_U64
#undef SEMSIM_FIELD_CLI_U32
#undef SEMSIM_FIELD_CLI_F64
#undef SEMSIM_FIELD_CLI_DIST
  if (flag_value(a, "--seed", argc, argv, i, &v)) {
    spec->seed = parse_u64("--seed", v);
  } else if (a == "--non-adaptive") {
    spec->adaptive = false;
  } else if (flag_value(a, "--repeats", argc, argv, i, &v)) {
    *repeats = parse_count("--repeats", v);
  } else if (flag_value(a, "--target-rel-error", argc, argv, i, &v)) {
    spec->stop.target_rel_error = parse_positive_f64("--target-rel-error", v);
  } else if (flag_value(a, "--max-events", argc, argv, i, &v)) {
    spec->stop.max_events = parse_u64("--max-events", v);
  } else if (a == "--strict") {
    spec->retry.strict = true;
  } else if (flag_value(a, "--retries", argc, argv, i, &v)) {
    spec->retry.max_attempts = parse_count("--retries", v);
  } else {
    return false;
  }
  return true;
}

/// Usage text of the run flags (parse_run_flag), printed by both tools.
constexpr const char* kRunFlagsUsage =
    "run flags (semsim and semsim_submit):\n"
    "  --seed N             base seed of every RNG stream (default 1)\n"
    "  --non-adaptive       run the conventional solver, not the adaptive one\n"
    "  --repeats N          override the input file's `jumps` repeat count\n"
    "  --target-rel-error X run each measurement until its binned relative\n"
    "                       error (autocorrelation-aware) drops below X\n"
    "  --max-events N       hard per-measurement event cap for\n"
    "                       --target-rel-error\n"
    "  --strict             fail fast: the first work-unit error aborts\n"
    "                       the run (default: retry recoverable errors,\n"
    "                       then degrade the unit and continue)\n"
    "  --retries N          attempts per work unit incl. the first\n"
    "                       (default 3; 1 disables retry)\n"
    "  --ensemble N         run N device replicas with perturbed parameters\n"
    "                       (statistical variability study); any --ensemble-*\n"
    "                       flag also enables the ensemble\n"
    "  --ensemble-seed N    dedicated ensemble seed (0 = derive from --seed)\n"
    "  --ensemble-bg-spread X   background-charge offset spread [e]\n"
    "  --ensemble-r-spread  X   relative junction-R spread\n"
    "  --ensemble-c-spread  X   relative junction/capacitor-C spread\n"
    "  --ensemble-t-spread  X   relative temperature spread\n"
    "  --ensemble-*-dist D  draw distribution: gaussian (default) | uniform\n"
    "  --ensemble-yield-min/max X   |I| window a replica must land in to\n"
    "                       count toward the yield fraction\n"
    "  --partitions N       domain-decompose the single-run measurement\n"
    "                       into up to N weakly-coupled clusters advanced\n"
    "                       under conservative time windows; any\n"
    "                       --partition-* flag also enables this. The\n"
    "                       planner never cuts a strongly-coupled\n"
    "                       component, so the effective count may be lower\n"
    "  --partition-window X synchronization window [s] (0 = auto from the\n"
    "                       initial total rate)\n"
    "  --partition-threshold X  normalized kappa coupling above which two\n"
    "                       islands must share a cluster (default 0.025)\n";

}  // namespace semsim
