// Error taxonomy and lightweight contract checks for SEMSIM.
//
// Every SEMSIM error carries a stable ErrorCode so callers can decide
// retry-vs-fail-vs-degrade programmatically instead of string-matching
// what(). Codes group into categories (the hundreds digit); the category
// determines severity: parse/circuit/io errors describe the input or the
// environment and retrying cannot help, while numeric/invariant/timeout
// errors describe one run gone bad — a fault-isolated sweep retries those
// with a re-derived RNG stream (src/guard/retry.h) and degrades the single
// point instead of aborting hours of work.
//
// Exceptions also carry a context chain: a catch site can call
// add_context("bias point 12 (V = 0.004)") and rethrow (`throw;` preserves
// the concrete type), so the surfaced message reads outermost-first like a
// stack of causes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace semsim {

/// Stable machine-readable error codes. The hundreds digit is the category
/// (see ErrorCategory); append new codes within a category, never renumber —
/// the names feed sweep status columns ("failed:<code>") and JSON documents.
enum class ErrorCode : std::uint16_t {
  kNone = 0,     ///< "no error" marker for status fields, never thrown
  kUnknown = 1,  ///< legacy uncoded throw sites

  // parse (1xx): malformed input files
  kParseSyntax = 100,
  kParseBadNumber = 101,
  kParseNodeRange = 102,
  kParseDuplicateSource = 103,
  kParseFileOpen = 104,
  kParseNonPositiveResistance = 110,
  kParseNonPositiveCapacitance = 111,
  kParseNegativeTemperature = 112,
  kParseNonFiniteValue = 113,
  // JSON documents from untrusted transports (the service socket) are
  // bounded before/while parsing; both rejections are loud and coded.
  kParseJsonTooLarge = 114,
  kParseJsonTooDeep = 115,

  // circuit (2xx): structurally invalid circuits
  kCircuitInvalid = 200,
  kCircuitSelfLoop = 201,
  kCircuitDanglingIsland = 202,
  kCircuitBadElementValue = 203,

  // numeric (3xx): numerical failure of a solver
  kNumericFailure = 300,
  kSingularMatrix = 301,
  kNotPositiveDefinite = 302,
  kIllConditioned = 303,

  // invariant (4xx): runtime integrity violations (guard subsystem)
  kInvariantViolated = 400,
  kNonFiniteRate = 401,
  kNegativeRate = 402,
  kNonFinitePotential = 403,
  kChargeNotConserved = 404,
  kFenwickDrift = 405,
  kNoProgress = 406,
  kDeltaWDrift = 407,

  // io (5xx): files and checkpoints
  kIoFailure = 500,
  kCheckpointCorrupt = 501,
  kCheckpointMismatch = 502,

  // timeout (6xx): watchdog aborts
  kWatchdogWallClock = 600,

  // cancel (7xx): cooperative cancellation (base/cancel.h). Not retryable —
  // the controller asked the run to stop — but also not a defect: the
  // service layer maps it to a "cancelled" job state, never to a failure.
  kCancelled = 700,

  // serve (8xx): service-layer request failures (src/serve/). These
  // describe the REQUEST, not the simulation: the daemon answers with a
  // coded error response and keeps running.
  kServeBadRequest = 800,    ///< malformed verb/field combination
  kServeUnknownJob = 801,    ///< job id the scheduler has never seen
  kServeJobNotReady = 802,   ///< `result` before the job reached `done`
  kServeShuttingDown = 803,  ///< submit refused during shutdown
  kServeIo = 804,            ///< socket transport failure (client side)
  kDeadlineExceeded = 805,   ///< job missed its deadline_ms wall budget
  kServerOverloaded = 806,   ///< admission control rejected the submit
  kServeJournalCorrupt = 807,  ///< job journal header/record damage beyond
                               ///< the recoverable torn tail
};

enum class ErrorCategory : std::uint8_t {
  kNone = 0,
  kInternal,
  kParse,
  kCircuit,
  kNumeric,
  kInvariant,
  kIo,
  kTimeout,
  kCancel,
  kServe,
};

enum class Severity : std::uint8_t {
  kRecoverable,  ///< one run/point went bad; a retry may succeed
  kFatal,        ///< input or environment is wrong; retrying cannot help
};

/// Category of a code (its hundreds digit).
ErrorCategory category_of(ErrorCode code) noexcept;

/// Stable dotted name, e.g. "invariant.non_finite_rate". Used verbatim in
/// sweep status columns ("failed:invariant.non_finite_rate") and JSON.
const char* error_code_name(ErrorCode code) noexcept;

/// Severity derived from the category: numeric/invariant/timeout failures
/// are recoverable (retryable), everything else is fatal.
Severity severity_of(ErrorCode code) noexcept;

/// True when a fault-isolated driver may retry after this code.
inline bool is_retryable(ErrorCode code) noexcept {
  return severity_of(code) == Severity::kRecoverable;
}

/// Base class for all SEMSIM errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message)
      : Error(ErrorCode::kUnknown, message) {}
  Error(ErrorCode code, const std::string& message);

  ErrorCode code() const noexcept { return code_; }
  ErrorCategory category() const noexcept { return category_of(code_); }
  Severity severity() const noexcept { return severity_of(code_); }
  bool retryable() const noexcept { return is_retryable(code_); }

  /// The original message without any context frames.
  const std::string& message() const noexcept { return message_; }
  /// Context frames, outermost (most recently added) first.
  const std::vector<std::string>& context() const noexcept { return context_; }

  /// Prepends a context frame ("while ...", "bias point 12", ...). Call from
  /// a catch site, then `throw;` — rethrowing by `throw;` preserves the
  /// concrete exception type, so downstream catch-by-type still works.
  void add_context(const std::string& frame);

  /// Full composed text: "ctx1: ctx2: message".
  const char* what() const noexcept override;

 private:
  ErrorCode code_;
  std::string message_;
  std::vector<std::string> context_;
  mutable std::string composed_;  // lazily composed by what()
};

/// Malformed netlist / input file. Carries the 1-based input line number
/// when one is known (0 otherwise).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& message)
      : Error(ErrorCode::kParseSyntax, message) {}
  ParseError(ErrorCode code, const std::string& message)
      : Error(code, message) {}
  ParseError(ErrorCode code, std::size_t line, const std::string& message)
      : Error(code, "input line " + std::to_string(line) + ": " + message),
        line_(line) {}

  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_ = 0;
};

/// Structurally invalid circuit (dangling node, self-loop element,
/// non-positive element value, mixed superconducting and normal elements).
class CircuitError : public Error {
 public:
  explicit CircuitError(const std::string& message)
      : Error(ErrorCode::kCircuitInvalid, message) {}
  CircuitError(ErrorCode code, const std::string& message)
      : Error(code, message) {}
};

/// Numerical failure (singular matrix factorization, non-convergence, ...).
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& message)
      : Error(ErrorCode::kNumericFailure, message) {}
  NumericError(ErrorCode code, const std::string& message)
      : Error(code, message) {}
};

/// A runtime integrity invariant failed mid-run (non-finite rate, charge
/// bookkeeping drift, Fenwick total drift, stalled simulation clock). The
/// run's state is suspect; fault-isolated drivers retry with a fresh engine.
class InvariantViolation : public Error {
 public:
  explicit InvariantViolation(const std::string& message)
      : Error(ErrorCode::kInvariantViolated, message) {}
  InvariantViolation(ErrorCode code, const std::string& message)
      : Error(code, message) {}
};

/// File / checkpoint I/O failure.
class IoError : public Error {
 public:
  explicit IoError(const std::string& message)
      : Error(ErrorCode::kIoFailure, message) {}
  IoError(ErrorCode code, const std::string& message) : Error(code, message) {}
};

/// Watchdog abort: a run exceeded its wall-clock budget.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& message)
      : Error(ErrorCode::kWatchdogWallClock, message) {}
  TimeoutError(ErrorCode code, const std::string& message)
      : Error(code, message) {}
};

/// Throws semsim::Error(code, message). Out of line, so an inlined check
/// keeps only its test on the hot path.
[[noreturn]] void throw_error(ErrorCode code, std::string_view message);

/// Throws semsim::Error with `message` when `condition` is false.
/// Used for precondition checks on public API boundaries; cheap enough to
/// keep enabled in release builds. A passing check constructs nothing: a
/// literal binds to the view without building a string, the error's
/// string is built only when the check throws, and a check whose message
/// is computed tests its condition first and builds the message only on
/// failure.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] throw_error(ErrorCode::kUnknown, message);
}

inline void require(bool condition, ErrorCode code, std::string_view message) {
  if (!condition) [[unlikely]] throw_error(code, message);
}

}  // namespace semsim
