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

#include "analysis/ensemble_spec.h"
#include "core/partition_spec.h"
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

// The spec flags are generated from the SEMSIM_ENSEMBLE_FIELD and
// SEMSIM_PARTITION_FIELD tables (analysis/run_fields.inc). Passing any flag
// of a spec enables it; each parser returns true when `a` was one of its
// flags (and consumed the value).
#define SEMSIM_SPEC_FLAG_(flag, assign)           \
  if (flag_value(a, flag, argc, argv, i, &v)) {   \
    assign;                                       \
    spec->enabled = true;                         \
    return true;                                  \
  }
#define SEMSIM_FIELD_CLI_U64(member, flag) \
  SEMSIM_SPEC_FLAG_(flag, spec->member = parse_u64(flag, v))
#define SEMSIM_FIELD_CLI_U32(member, flag) \
  SEMSIM_SPEC_FLAG_(flag, spec->member = parse_count(flag, v))
#define SEMSIM_FIELD_CLI_F64(member, flag) \
  SEMSIM_SPEC_FLAG_(flag, spec->member = parse_f64(flag, v))
#define SEMSIM_FIELD_CLI_DIST(member, flag) \
  SEMSIM_SPEC_FLAG_(flag, spec->member = parse_dist(flag, v))

inline bool parse_ensemble_flag(const std::string& a, int argc, char** argv,
                                int& i, EnsembleSpec* spec) {
  std::string v;
#define SEMSIM_ENSEMBLE_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_CLI_##KIND(member, cli_flag)
#include "analysis/run_fields.inc"
  return false;
}

inline bool parse_partition_flag(const std::string& a, int argc, char** argv,
                                 int& i, PartitionSpec* spec) {
  std::string v;
#define SEMSIM_PARTITION_FIELD(ident, member, KIND, json_name, cli_flag) \
  SEMSIM_FIELD_CLI_##KIND(member, cli_flag)
#include "analysis/run_fields.inc"
  return false;
}

#undef SEMSIM_SPEC_FLAG_
#undef SEMSIM_FIELD_CLI_U64
#undef SEMSIM_FIELD_CLI_U32
#undef SEMSIM_FIELD_CLI_F64
#undef SEMSIM_FIELD_CLI_DIST

}  // namespace semsim
