// Job model of the simulation service (src/serve/).
//
// A job is one submitted RunRequest moving through a small state machine:
//
//   queued ----> running ----> done
//     |             |-------> failed     (fatal Error from the driver)
//     |             '-------> cancelled  (cancel verb / daemon shutdown)
//     '---------------------> cancelled  (cancelled while still queued)
//     '---------------------> done       (result cache hit: born done)
//
// Terminal states are done / failed / cancelled; a cancelled or failed job
// keeps its spool checkpoint on disk, so resubmitting the identical request
// resumes from the finished prefix (obs/checkpoint.h) instead of starting
// over. JobStatus is the immutable snapshot the status verb serializes,
// including the streaming partial results a ProgressSink collected so far.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "base/error.h"

namespace semsim {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

/// Stable wire spelling ("queued", "running", "done", "failed",
/// "cancelled").
const char* job_state_name(JobState state) noexcept;

inline bool job_state_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Point-in-time snapshot of one job (the status verb's payload).
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  int priority = 0;
  std::uint64_t fingerprint = 0;
  /// True when the result came from the fingerprint cache and the job never
  /// touched the engine.
  bool cached = false;
  /// Absolute wall-clock deadline (Unix epoch ms); 0 = no deadline. A job
  /// past it ends `failed` with error_code serve.deadline_exceeded.
  std::uint64_t deadline_unix_ms = 0;
  /// Client identity from the submit envelope ("" = anonymous).
  std::string client;

  // ---- streaming progress --------------------------------------------
  std::uint64_t units_total = 0;
  std::uint64_t units_done = 0;
  std::uint64_t points_total = 0;  ///< 0 for non-sweep runs
  std::uint64_t points_done = 0;
  std::uint64_t degraded_points = 0;  ///< failed rows streamed so far
  // Ensemble jobs only (both 0 otherwise): replica population progress.
  std::uint64_t replicas_total = 0;
  std::uint64_t replicas_done = 0;
  /// Completed sweep rows with their table index, in index order (may be
  /// sparse while running); the final document's sweep rows, streamed so
  /// a client can render the table incrementally.
  std::vector<std::pair<std::uint64_t, IvPoint>> partial;

  // ---- terminal detail ------------------------------------------------
  /// failed: the driver error. cancelled: the cancellation message.
  std::string error;
  ErrorCode error_code = ErrorCode::kNone;
  /// Spool checkpoint left on disk by a cancelled/failed job ("" = none);
  /// a resubmit of the identical request resumes from it.
  std::string checkpoint_path;
};

}  // namespace semsim
