#include "base/error.h"

namespace semsim {

ErrorCategory category_of(ErrorCode code) noexcept {
  const auto v = static_cast<std::uint16_t>(code);
  if (v == 0) return ErrorCategory::kNone;
  switch (v / 100) {
    case 1: return ErrorCategory::kParse;
    case 2: return ErrorCategory::kCircuit;
    case 3: return ErrorCategory::kNumeric;
    case 4: return ErrorCategory::kInvariant;
    case 5: return ErrorCategory::kIo;
    case 6: return ErrorCategory::kTimeout;
    case 7: return ErrorCategory::kCancel;
    case 8: return ErrorCategory::kServe;
    default: return ErrorCategory::kInternal;
  }
}

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kUnknown: return "internal.unknown";
    case ErrorCode::kParseSyntax: return "parse.syntax";
    case ErrorCode::kParseBadNumber: return "parse.bad_number";
    case ErrorCode::kParseNodeRange: return "parse.node_range";
    case ErrorCode::kParseDuplicateSource: return "parse.duplicate_source";
    case ErrorCode::kParseFileOpen: return "parse.file_open";
    case ErrorCode::kParseNonPositiveResistance:
      return "parse.non_positive_resistance";
    case ErrorCode::kParseNonPositiveCapacitance:
      return "parse.non_positive_capacitance";
    case ErrorCode::kParseNegativeTemperature:
      return "parse.negative_temperature";
    case ErrorCode::kParseNonFiniteValue: return "parse.non_finite_value";
    case ErrorCode::kParseJsonTooLarge: return "parse.json_too_large";
    case ErrorCode::kParseJsonTooDeep: return "parse.json_too_deep";
    case ErrorCode::kCircuitInvalid: return "circuit.invalid";
    case ErrorCode::kCircuitSelfLoop: return "circuit.self_loop";
    case ErrorCode::kCircuitDanglingIsland: return "circuit.dangling_island";
    case ErrorCode::kCircuitBadElementValue:
      return "circuit.bad_element_value";
    case ErrorCode::kNumericFailure: return "numeric.failure";
    case ErrorCode::kSingularMatrix: return "numeric.singular_matrix";
    case ErrorCode::kNotPositiveDefinite:
      return "numeric.not_positive_definite";
    case ErrorCode::kIllConditioned: return "numeric.ill_conditioned";
    case ErrorCode::kInvariantViolated: return "invariant.violated";
    case ErrorCode::kNonFiniteRate: return "invariant.non_finite_rate";
    case ErrorCode::kNegativeRate: return "invariant.negative_rate";
    case ErrorCode::kNonFinitePotential:
      return "invariant.non_finite_potential";
    case ErrorCode::kChargeNotConserved:
      return "invariant.charge_not_conserved";
    case ErrorCode::kFenwickDrift: return "invariant.fenwick_drift";
    case ErrorCode::kNoProgress: return "invariant.no_progress";
    case ErrorCode::kDeltaWDrift: return "invariant.delta_w_drift";
    case ErrorCode::kIoFailure: return "io.failure";
    case ErrorCode::kCheckpointCorrupt: return "io.checkpoint_corrupt";
    case ErrorCode::kCheckpointMismatch: return "io.checkpoint_mismatch";
    case ErrorCode::kWatchdogWallClock: return "timeout.wall_clock";
    case ErrorCode::kCancelled: return "cancel.requested";
    case ErrorCode::kServeBadRequest: return "serve.bad_request";
    case ErrorCode::kServeUnknownJob: return "serve.unknown_job";
    case ErrorCode::kServeJobNotReady: return "serve.job_not_ready";
    case ErrorCode::kServeShuttingDown: return "serve.shutting_down";
    case ErrorCode::kServeIo: return "serve.io";
    case ErrorCode::kDeadlineExceeded: return "serve.deadline_exceeded";
    case ErrorCode::kServerOverloaded: return "serve.overloaded";
    case ErrorCode::kServeJournalCorrupt: return "serve.journal_corrupt";
  }
  return "internal.unknown";
}

Severity severity_of(ErrorCode code) noexcept {
  switch (category_of(code)) {
    case ErrorCategory::kNumeric:
    case ErrorCategory::kInvariant:
    case ErrorCategory::kTimeout:
      return Severity::kRecoverable;
    default:
      return Severity::kFatal;
  }
}

Error::Error(ErrorCode code, const std::string& message)
    : std::runtime_error(message), code_(code), message_(message) {}

void throw_error(ErrorCode code, std::string_view message) {
  throw Error(code, std::string(message));
}

void Error::add_context(const std::string& frame) {
  context_.insert(context_.begin(), frame);
  composed_.clear();
}

const char* Error::what() const noexcept {
  if (context_.empty()) return std::runtime_error::what();
  if (composed_.empty()) {
    try {
      std::string text;
      for (const auto& frame : context_) {
        text += frame;
        text += ": ";
      }
      text += message_;
      composed_ = std::move(text);
    } catch (...) {
      return std::runtime_error::what();
    }
  }
  return composed_.c_str();
}

}  // namespace semsim
