// Write-ahead job journal of the simulation service (src/serve/).
//
// The scheduler's queue used to live only in memory: a SIGKILL, OOM kill,
// or host reboot silently dropped every queued and running job. The journal
// makes the job table durable the classic WAL way — every state transition
// is appended (and fsynced) BEFORE the scheduler acts on it:
//
//   submit  -> the full request envelope (JSON text), deadline, client id
//   start   -> the dispatcher picked the job
//   cancel  -> a cancel verb arrived (may or may not land before terminal)
//   done    -> terminal state + error detail + the canonical result
//              document (so completed results survive a restart and
//              re-seed the fingerprint cache)
//
// On daemon restart the scheduler replays the journal in append order and
// reconstructs the job table: terminal jobs come back verbatim (documents
// re-inserted into the result cache), jobs with an unprocessed cancel
// record come back `cancelled`, and every other job is re-enqueued in its
// original submission order — resuming from its spool checkpoint when one
// exists, so an interrupted population converges to the byte-identical
// canonical document a clean run produces (tools/semsim_chaos.cpp proves
// this under repeated SIGKILL).
//
// File format (all integers little-endian, BinaryWriter/Reader codec from
// obs/checkpoint.h):
//
//   u64  magic       "SEMSIMJL"
//   u32  format version (kFormatVersion)
//   u32  reserved (0)
//   repeated records, each one frame (the frame writer and FrameScanner
//   of obs/checkpoint.h, shared with the run checkpoint):
//     u64  body_len
//     body_len bytes of body:  u8 type | u64 job_id | type payload
//     u64  fnv1a64(body)
//
// Records are appended with a single write() + fsync(); a crash mid-append
// leaves a TORN TAIL. On open, the reader keeps the longest valid record
// prefix and truncates the file back to it (truncated_bytes() reports how
// much was dropped), so a second restart replays byte-identical state —
// replay is idempotent. A frame is torn when its length field, body or
// checksum runs past the end of the file, when its length exceeds the body
// cap, or when its checksum fails. Damage that a torn append cannot explain
// (bad magic, unknown format version, anything wrong inside a body whose
// checksum verified) is an unrecoverable coded Error(kServeJournalCorrupt):
// the journal never guesses at job identity.
//
// The file is mapped read-only (obs/checkpoint.h MappedFile), and each
// frame is checked and decoded where it lies in the mapping: nothing is
// allocated from a length field before the file is known to hold those
// bytes. The frame reader checksums the bodies four at a time; the records
// copy what they keep, and the mapping is released before a torn tail is
// truncated.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/job.h"

namespace semsim {

/// One journal record: a job state transition. Which payload fields are
/// meaningful depends on `type` (see the format comment above).
struct JournalRecord {
  enum class Type : std::uint8_t {
    kSubmit = 1,
    kStart = 2,
    kCancel = 3,
    kDone = 4,
  };

  Type type = Type::kSubmit;
  std::uint64_t job_id = 0;

  // ---- kSubmit payload ------------------------------------------------
  /// The request envelope re-encoded as one JSON line
  /// (encode_request_envelope) — the submit's full, replayable identity.
  std::string envelope_json;
  /// Absolute wall-clock deadline (Unix epoch milliseconds); 0 = none.
  /// Absolute so the budget keeps counting across a crash + restart.
  std::uint64_t deadline_unix_ms = 0;
  /// Admission-control client identity ("" = anonymous).
  std::string client;

  // ---- kDone payload --------------------------------------------------
  JobState final_state = JobState::kDone;
  ErrorCode error_code = ErrorCode::kNone;
  std::string error;
  /// Canonical result document ("" unless final_state == kDone).
  std::string document;
};

/// Append-only, checksummed, fsynced journal file. Not thread-safe: the
/// scheduler serializes appends under its own mutex.
class JobJournal {
 public:
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Opens (creating if absent) and replays `path`. A torn tail is
  /// truncated off the file immediately; header-level damage throws
  /// Error(kServeJournalCorrupt); any other I/O failure throws IoError.
  explicit JobJournal(std::string path);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// The valid records found on open, in append order, moved out to the
  /// caller: the replay input, taken once. The journal keeps no history, so
  /// a second call returns nothing; append() never adds to it.
  std::vector<JournalRecord> take_records() noexcept {
    return std::move(records_);
  }
  /// Torn-tail bytes dropped (and truncated off the file) on open.
  std::uint64_t truncated_bytes() const noexcept { return truncated_bytes_; }

  /// Appends one record durably: single write() of the framed record, then
  /// fsync(). Throws IoError on failure.
  void append(const JournalRecord& record);

  const std::string& path() const noexcept { return path_; }

 private:
  void open_and_replay();

  std::string path_;
  int fd_ = -1;
  std::vector<JournalRecord> records_;
  std::uint64_t truncated_bytes_ = 0;
};

}  // namespace semsim
