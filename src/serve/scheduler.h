// Priority job scheduler of the simulation service.
//
// One dispatcher thread drains a priority queue (higher priority first,
// submission order within a priority) and runs each job through the SAME
// analysis::run() path the CLI uses — the daemon never re-implements
// execution, it only supplies the three service hooks DriverOptions grew
// for it:
//   * a shared ParallelExecutor, so every job shards its work units across
//     one long-lived pool instead of spawning threads per job;
//   * a per-job CancelToken, so cancel/shutdown/deadline-expiry interrupt
//     the run at the next work-unit boundary;
//   * a per-job ProgressSink, so the status verb streams completed sweep
//     points while the job runs.
// None of the hooks affects results (they are not fingerprinted), so a
// served run is bitwise identical to `semsim_cli` on the same input —
// tests/test_serve.cpp enforces it byte-for-byte at 1 and 8 worker
// threads, including a fault-injected degraded case.
//
// Jobs run one at a time: work units within a job are the parallelism
// (sweep chunks, repeats), which keeps the executor fully busy without
// oversubscribing cores, and makes job wall-time predictable.
//
// Durability (serve/journal.h): with a journal configured, every job
// transition is appended + fsynced BEFORE the scheduler acts on it, so an
// acknowledged submit is never lost to a SIGKILL. On construction the
// scheduler replays the journal: terminal jobs come back verbatim (their
// canonical documents re-seed the result cache, and a done job the cache
// answered comes back cached), pending jobs re-enqueue in submission order
// and resume from their spool checkpoints, and a logged-but-unprocessed
// cancel lands as `cancelled`.
//
// Overload (admission control): a full queue or a client over its
// in-flight cap gets a coded OverloadError (serve.overloaded) carrying a
// retry_after_ms hint — deterministic, never a hang or a silent drop.
//
// Deadlines: a submit may carry deadline_ms, a wall budget counted from
// submission (queue wait included, surviving restarts via the journal's
// absolute timestamp). A monitor thread expires queued jobs directly and
// stops running ones through their CancelToken; either way the job ends
// `failed` with the coded serve.deadline_exceeded — never misfiled as a
// cancel or a crash.
//
// Completed documents go into a ResultCache keyed by result_key (the run
// fingerprint, mixed with the retry policy when that is not the default);
// a submit whose key hits the cache is born `done` with cached=true and
// never touches the engine. A document is held once: the job that computed
// it, every job the cache answered with it and the cache entry share the
// same immutable bytes, and a terminal job keeps only what status() and
// result() read (its run inputs are dropped). When a spool directory is
// configured, every job checkpoints to spool/job-<key>.ckpt; the file is
// deleted on success and KEPT on cancellation or failure, so resubmitting
// the identical request resumes from the finished prefix. A submit whose
// fault plan can change its result (any fault but a sleep) has no key: it
// neither reads nor writes the cache and runs without a spool checkpoint,
// so it never answers, or resumes into, a clean submit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/cancel.h"
#include "base/thread_pool.h"
#include "io/envelope.h"
#include "serve/cache.h"
#include "serve/job.h"
#include "serve/journal.h"

namespace semsim {

struct SimulationInput;

struct SchedulerConfig {
  /// Worker threads of the shared executor (0 = all hardware threads).
  unsigned threads = 1;
  /// Result-cache byte budget (0 disables caching).
  std::size_t cache_bytes = 64ull << 20;
  /// Directory for per-job spool checkpoints; "" disables checkpointing
  /// (cancelled jobs are then not resumable). Created on demand.
  std::string spool_dir;
  /// Write-ahead job journal file; "" disables durability (a crash then
  /// drops the in-memory queue, exactly the pre-journal behavior).
  std::string journal_path;
  /// Queued-job cap; a submit that would exceed it is rejected with
  /// OverloadError (serve.overloaded + retry_after_ms). 0 = unbounded.
  std::size_t max_queue_depth = 256;
  /// Per-client non-terminal job cap (client id from the envelope; "" is
  /// one anonymous bucket). 0 = unbounded.
  std::size_t max_inflight_per_client = 64;
  /// The deterministic retry hint carried by every overload rejection.
  std::uint64_t retry_after_ms = 250;
};

/// Admission-control rejection: coded kServerOverloaded plus the hint the
/// server surfaces as "retry_after_ms" in the error response.
class OverloadError : public Error {
 public:
  OverloadError(const std::string& message, std::uint64_t retry_after_ms)
      : Error(ErrorCode::kServerOverloaded, message),
        retry_after_ms_(retry_after_ms) {}
  std::uint64_t retry_after_ms() const noexcept { return retry_after_ms_; }

 private:
  std::uint64_t retry_after_ms_;
};

class JobScheduler {
 public:
  /// Full job record; defined in scheduler.cpp (the per-job ProgressSink
  /// needs to see it).
  struct Job;

  /// Opens the journal (replaying any prior daemon's state) before the
  /// dispatcher starts; throws Error(kServeJournalCorrupt) on
  /// unrecoverable journal damage.
  explicit JobScheduler(const SchedulerConfig& config);
  ~JobScheduler();  // shutdown()

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Validates and enqueues a submit envelope (netlist parsed here, at the
  /// door — a malformed netlist throws ParseError/CircuitError and no job
  /// is created). Returns the new job id; ids start at 1 and are never
  /// reused (journal replay advances the counter past every replayed id).
  /// Throws Error(kServeShuttingDown) after shutdown began and
  /// OverloadError when admission control rejects the job.
  std::uint64_t submit(const RequestEnvelope& env);

  /// Snapshot of one job, or nullopt for an unknown id.
  std::optional<JobStatus> status(std::uint64_t id) const;

  /// The completed job's canonical RunResult document, shared with the
  /// job (and the cache entry, while it lasts) rather than copied. Throws
  /// Error(kServeUnknownJob) / Error(kServeJobNotReady) otherwise.
  SharedDocument result(std::uint64_t id) const;

  /// Requests cancellation: a queued job transitions to `cancelled`
  /// immediately, a running job at its next work-unit boundary (poll
  /// status to observe it). Returns false when the job is already
  /// terminal. Throws Error(kServeUnknownJob) for an unknown id.
  bool cancel(std::uint64_t id);

  /// Aggregate counters for the stats verb.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cache_hits = 0;  ///< submits answered from the cache
    std::uint64_t queued = 0;      ///< currently waiting
    std::uint64_t running = 0;     ///< 0 or 1
    unsigned threads = 0;
    // ---- robustness counters -----------------------------------------
    std::uint64_t overload_rejected = 0;  ///< admission-control rejects
    std::uint64_t deadline_expired = 0;   ///< failed:serve.deadline_exceeded
    std::uint64_t replayed = 0;           ///< jobs restored from the journal
    std::uint64_t journal_truncated_bytes = 0;  ///< torn tail dropped on open
  };
  Stats stats() const;
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

  /// Stops the dispatcher: the running job (if any) is cancelled — its
  /// spool checkpoint survives — queued jobs transition to `cancelled`,
  /// and further submits are refused. Idempotent; the destructor calls it.
  /// With a journal, a later daemon replays the cancelled jobs as
  /// cancelled (their checkpoints still resume on resubmit).
  void shutdown();

 private:
  void dispatcher_loop();
  void deadline_loop();
  void execute(Job& job);
  Job* find_locked(std::uint64_t id) const;
  /// A job for `env` without run inputs: its identity, fingerprint and
  /// key. `input` is env's netlist, parsed, with env's repeats override.
  std::unique_ptr<Job> make_job(const RequestEnvelope& env,
                                const SimulationInput& input) const;
  /// The job's spool checkpoint file ("" when checkpointing is off or
  /// the job has no key).
  std::string spool_path(const Job& job) const;
  void replay_journal();
  /// Counts a new non-terminal job against its client's in-flight cap and
  /// indexes its deadline.
  void track_locked(const Job& job);
  /// Moves a non-terminal job to its terminal `state`: records the detail,
  /// drops its run inputs, releases its in-flight slot and deadline entry,
  /// and counts it. Journals nothing (replay calls it too).
  void settle_locked(Job& job, JobState state, ErrorCode code,
                     std::string error);
  /// settle_locked, then journals the transition.
  void finish_locked(Job& job, JobState state, ErrorCode code,
                     std::string error);
  void journal_done_locked(const Job& job);

  const SchedulerConfig config_;
  const ParallelExecutor executor_;
  ResultCache cache_;
  std::unique_ptr<JobJournal> journal_;  ///< null when durability is off

  mutable std::mutex mu_;
  std::condition_variable cv_;           ///< wakes the dispatcher
  std::condition_variable deadline_cv_;  ///< wakes the deadline monitor
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<std::uint64_t> queue_;  ///< submission order; priority at pop
  std::uint64_t running_id_ = 0;     ///< 0 = idle
  /// Non-terminal jobs per client; a client with none has no entry.
  std::unordered_map<std::string, std::size_t> inflight_;
  /// (deadline_unix_ms, id) of every non-terminal job with a deadline that
  /// the monitor has not yet told to stop, earliest first.
  std::set<std::pair<std::uint64_t, std::uint64_t>> deadlines_;
  Stats totals_;

  std::thread dispatcher_;
  std::thread deadline_monitor_;
};

/// The key of a submit's result-cache entry and spool checkpoint: its run
/// fingerprint under the default retry policy, else fnv1a64 of (u64
/// fingerprint, u8 strict, u32 max_attempts). The fingerprint leaves the
/// policy out, but a strict or differently retried run can end otherwise
/// (a failure instead of a degraded row), so it must not share an entry.
std::uint64_t result_key(std::uint64_t fingerprint,
                         const RetryPolicy& retry);

/// Wall clock as Unix epoch milliseconds (journal deadlines are absolute
/// so budgets keep counting across restarts).
std::uint64_t unix_now_ms() noexcept;

}  // namespace semsim
