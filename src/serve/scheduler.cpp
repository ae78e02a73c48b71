#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_set>

#include "analysis/api.h"
#include "analysis/sweep.h"
#include "obs/checkpoint.h"

namespace semsim {

std::uint64_t unix_now_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Full job record. Request fields are immutable after submit(); `state`,
/// `inputs` and terminal detail are guarded by the scheduler mutex (a
/// running job's inputs belong to the dispatcher); the streaming progress
/// block is guarded by its own mutex because worker threads write it while
/// status() reads it.
struct JobScheduler::Job {
  std::uint64_t id = 0;
  int priority = 0;
  JobState state = JobState::kQueued;
  bool cached = false;
  bool ensemble = false;  ///< status() reports units as replicas

  // ---- request (frozen at submit) ------------------------------------
  /// What the job runs: the request without the service hooks execute()
  /// adds, and its fault plan (empty = no injection).
  struct Inputs {
    RunRequest request;
    FaultPlan fault;
  };
  /// Held only while the job may still run: a job born terminal (a cache
  /// hit, a replayed finished job) never gets it, execute() takes it over,
  /// and every other way to a terminal state drops it.
  std::unique_ptr<Inputs> inputs;
  std::uint64_t fingerprint = 0;
  /// The job's result-cache and spool key (result_key); none when its
  /// fault plan can change the result, so it neither reads nor writes the
  /// cache and runs without a spool checkpoint.
  std::optional<std::uint64_t> key;
  /// Absolute wall deadline (Unix epoch ms, 0 = none). Absolute so the
  /// budget keeps counting across a crash + journal replay.
  std::uint64_t deadline_unix_ms = 0;
  std::string client;  ///< admission-control identity ("" = anonymous)

  // ---- terminal detail (scheduler mutex) ------------------------------
  SharedDocument document;  ///< canonical RunResult JSON once done
  std::string error;
  ErrorCode error_code = ErrorCode::kNone;
  /// Set by the deadline monitor while the job runs; tells execute() to
  /// file the resulting kCancelled stop as failed:kDeadlineExceeded, never
  /// as a user cancel. Guarded by the scheduler mutex.
  bool deadline_expired = false;

  CancelToken cancel;

  // ---- streaming progress (own mutex; written from worker threads) ----
  mutable std::mutex progress_mu;
  std::uint64_t units_total = 0;
  std::uint64_t units_done = 0;
  std::uint64_t points_done = 0;
  std::uint64_t degraded_points = 0;
  /// The sweep table (on_run_started's points_total rows), each row set
  /// once its point is final.
  std::vector<std::optional<IvPoint>> sweep;
};

std::uint64_t result_key(std::uint64_t fingerprint,
                         const RetryPolicy& retry) {
  const RetryPolicy standard;
  if (retry.strict == standard.strict &&
      retry.max_attempts == standard.max_attempts) {
    return fingerprint;
  }
  BinaryWriter w;
  w.u64(fingerprint);
  w.u8(retry.strict ? 1 : 0);
  w.u32(retry.max_attempts);
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

namespace {

/// True when `plan` holds a fault that can change a result: any kind but
/// a sleep (and the inert `none`).
bool changes_results(const FaultPlan& plan) {
  return std::any_of(plan.faults.begin(), plan.faults.end(),
                     [](const FaultSpec& f) {
                       return f.kind != FaultKind::kSleep &&
                              f.kind != FaultKind::kNone;
                     });
}

/// Gives a job that may still run its run inputs: env's spec and fault
/// plan, and `input` (env's netlist, parsed, with env's repeats override).
void give_inputs(JobScheduler::Job& job, const RequestEnvelope& env,
                 SimulationInput input) {
  job.inputs = std::make_unique<JobScheduler::Job::Inputs>();
  RunRequest& req = job.inputs->request;
  static_cast<RunSpec&>(req) = env;
  req.input = std::move(input);
  job.inputs->fault = env.fault;
}

/// ProgressSink writing into a Job's progress block. Thread-safe, as the
/// sweep contract requires (callbacks fire from pool workers).
class JobProgressSink final : public ProgressSink {
 public:
  explicit JobProgressSink(JobScheduler::Job& job) : job_(job) {}

  void on_run_started(std::uint64_t units_total,
                      std::uint64_t points_total) override {
    const std::lock_guard<std::mutex> lock(job_.progress_mu);
    job_.units_total = units_total;
    job_.sweep.resize(points_total);
  }

  void on_sweep_points(std::size_t first, const IvPoint* points,
                       std::size_t count) override {
    const std::lock_guard<std::mutex> lock(job_.progress_mu);
    job_.points_done += count;
    for (std::size_t i = 0; i < count; ++i) {
      if (points[i].status == PointStatus::kFailed) job_.degraded_points += 1;
      job_.sweep[first + i] = points[i];
    }
  }

  void on_unit_done(std::size_t /*unit*/) override {
    const std::lock_guard<std::mutex> lock(job_.progress_mu);
    job_.units_done += 1;
  }

 private:
  JobScheduler::Job& job_;
};

}  // namespace

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "queued";
}

JobScheduler::JobScheduler(const SchedulerConfig& config)
    : config_(config),
      executor_(config.threads),
      cache_(config.cache_bytes) {
  if (!config_.spool_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.spool_dir, ec);
    if (ec) {
      throw IoError(ErrorCode::kIoFailure, "scheduler: cannot create spool '" +
                                               config_.spool_dir +
                                               "': " + ec.message());
    }
  }
  // Replay before either thread exists: the job table is rebuilt
  // single-threaded, then the dispatcher picks up the re-enqueued work.
  replay_journal();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  deadline_monitor_ = std::thread([this] { deadline_loop(); });
}

JobScheduler::~JobScheduler() { shutdown(); }

std::unique_ptr<JobScheduler::Job> JobScheduler::make_job(
    const RequestEnvelope& env, const SimulationInput& input) const {
  auto job = std::make_unique<Job>();
  job->priority = env.priority;
  job->ensemble = env.ensemble.enabled;
  job->client = env.client;
  job->fingerprint = run_fingerprint(input, env);
  if (!changes_results(env.fault)) {
    job->key = result_key(job->fingerprint, env.retry);
  }
  return job;
}

std::string JobScheduler::spool_path(const Job& job) const {
  if (config_.spool_dir.empty() || !job.key) return {};
  return config_.spool_dir + "/job-" + fingerprint_hex(*job.key) + ".ckpt";
}

std::uint64_t JobScheduler::submit(const RequestEnvelope& env) {
  require(env.verb == RequestEnvelope::Verb::kSubmit,
          ErrorCode::kServeBadRequest, "scheduler: not a submit envelope");

  // Validate at the door, before a job exists: a malformed netlist throws
  // the parser's own coded error back to the client.
  SimulationInput input = parse_simulation_input(env.netlist);
  if (env.repeats > 0) input.repeats = env.repeats;
  auto job = make_job(env, input);

  // One cache probe per submit: a hit makes the job terminal immediately —
  // no queue, no engine, the cache's own document. Only a job that may
  // run gets run inputs.
  SharedDocument hit = job->key ? cache_.lookup(*job->key) : nullptr;
  if (hit == nullptr) give_inputs(*job, env, std::move(input));

  const std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    throw Error(ErrorCode::kServeShuttingDown,
                "scheduler: shutting down, submit refused");
  }

  // Admission control guards the queue and the engine; a cache hit uses
  // neither, so it is always admitted.
  if (hit == nullptr) {
    if (config_.max_queue_depth > 0 &&
        queue_.size() >= config_.max_queue_depth) {
      totals_.overload_rejected += 1;
      throw OverloadError("scheduler: queue full (" +
                              std::to_string(queue_.size()) +
                              " jobs queued, cap " +
                              std::to_string(config_.max_queue_depth) + ")",
                          config_.retry_after_ms);
    }
    if (config_.max_inflight_per_client > 0) {
      const auto it = inflight_.find(job->client);
      const std::size_t inflight = it == inflight_.end() ? 0 : it->second;
      if (inflight >= config_.max_inflight_per_client) {
        totals_.overload_rejected += 1;
        throw OverloadError(
            "scheduler: client '" + job->client + "' has " +
                std::to_string(inflight) + " jobs in flight, cap " +
                std::to_string(config_.max_inflight_per_client),
            config_.retry_after_ms);
      }
    }
  }

  const std::uint64_t id = next_id_++;
  job->id = id;
  if (env.deadline_ms > 0) {
    job->deadline_unix_ms = unix_now_ms() + env.deadline_ms;
  }

  // WAL: log the submit (durably) before the job becomes visible, so an
  // acknowledged id always survives a crash.
  if (journal_) {
    JournalRecord rec;
    rec.type = JournalRecord::Type::kSubmit;
    rec.job_id = id;
    rec.envelope_json = encode_request_envelope(env);
    rec.deadline_unix_ms = job->deadline_unix_ms;
    rec.client = job->client;
    journal_->append(rec);
  }

  totals_.submitted += 1;
  if (hit != nullptr) {
    job->state = JobState::kDone;
    job->cached = true;
    job->document = std::move(hit);
    totals_.completed += 1;
    totals_.cache_hits += 1;
    journal_done_locked(*job);
  } else {
    queue_.push_back(id);
    track_locked(*job);
    if (job->deadline_unix_ms != 0) deadline_cv_.notify_all();
  }
  jobs_.emplace(id, std::move(job));
  cv_.notify_one();
  return id;
}

JobScheduler::Job* JobScheduler::find_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobScheduler::journal_done_locked(const Job& job) {
  if (!journal_) return;
  JournalRecord rec;
  rec.type = JournalRecord::Type::kDone;
  rec.job_id = job.id;
  rec.final_state = job.state;
  rec.error_code = job.error_code;
  rec.error = job.error;
  if (job.document != nullptr) rec.document = *job.document;
  journal_->append(rec);
}

void JobScheduler::track_locked(const Job& job) {
  inflight_[job.client] += 1;
  if (job.deadline_unix_ms != 0) {
    deadlines_.emplace(job.deadline_unix_ms, job.id);
  }
}

void JobScheduler::settle_locked(Job& job, JobState state, ErrorCode code,
                                 std::string error) {
  job.state = state;
  job.error = std::move(error);
  job.error_code = code;
  job.inputs.reset();
  if (job.deadline_unix_ms != 0) {
    deadlines_.erase({job.deadline_unix_ms, job.id});
  }
  const auto slot = inflight_.find(job.client);
  if (--slot->second == 0) inflight_.erase(slot);
  if (state == JobState::kDone) {
    totals_.completed += 1;
  } else if (state == JobState::kCancelled) {
    totals_.cancelled += 1;
  } else {
    totals_.failed += 1;
    if (code == ErrorCode::kDeadlineExceeded) totals_.deadline_expired += 1;
  }
}

void JobScheduler::finish_locked(Job& job, JobState state, ErrorCode code,
                                 std::string error) {
  settle_locked(job, state, code, std::move(error));
  journal_done_locked(job);
}

void JobScheduler::replay_journal() {
  if (config_.journal_path.empty()) return;
  journal_ = std::make_unique<JobJournal>(config_.journal_path);
  totals_.journal_truncated_bytes = journal_->truncated_bytes();

  // The records are taken over, so the journal keeps no history and each
  // document moves into its job, or is dropped for the cache's equal copy.
  // A pre-pass finds the jobs that finished: they never run again, so
  // they get no run inputs.
  std::vector<JournalRecord> records = journal_->take_records();
  std::unordered_set<std::uint64_t> finished;
  for (const JournalRecord& rec : records) {
    if (rec.type == JournalRecord::Type::kDone) finished.insert(rec.job_id);
  }

  // First pass, append order: rebuild the job table. A journal repeats few
  // netlist texts many times: each distinct (text, repeats override) is
  // parsed once, every job's fingerprint and key come from that shared
  // input, and only a job left to run gets its own copy.
  std::vector<std::uint64_t> order;  // submit order
  std::unordered_set<std::uint64_t> cancel_seen;
  std::unordered_set<std::uint64_t> started;
  std::map<std::tuple<std::string, std::uint32_t>, SimulationInput,
           std::less<>>
      parsed;
  for (JournalRecord& rec : records) {
    switch (rec.type) {
      case JournalRecord::Type::kSubmit: {
        if (jobs_.count(rec.job_id) != 0) {
          throw Error(ErrorCode::kServeJournalCorrupt,
                      "journal: duplicate submit for job " +
                          std::to_string(rec.job_id));
        }
        std::unique_ptr<Job> job;
        try {
          const RequestEnvelope env = parse_request_envelope(rec.envelope_json);
          // The fingerprint covers repeats, so the override is part of
          // the key (the lookup compares without copying the text).
          auto it = parsed.find(std::tie(env.netlist, env.repeats));
          if (it == parsed.end()) {
            SimulationInput input = parse_simulation_input(env.netlist);
            if (env.repeats > 0) input.repeats = env.repeats;
            it = parsed
                     .emplace(std::tuple(env.netlist, env.repeats),
                              std::move(input))
                     .first;
          }
          job = make_job(env, it->second);
          if (finished.count(rec.job_id) == 0) {
            give_inputs(*job, env, it->second);
          }
        } catch (const Error& e) {
          // The envelope parsed when it was logged; if it no longer does,
          // the journal was edited or belongs to an incompatible build —
          // guessing at job identity would be worse than refusing.
          throw Error(ErrorCode::kServeJournalCorrupt,
                      "journal: submit record for job " +
                          std::to_string(rec.job_id) +
                          " no longer parses: " + e.what());
        }
        job->id = rec.job_id;
        job->deadline_unix_ms = rec.deadline_unix_ms;
        job->client = std::move(rec.client);
        track_locked(*job);
        order.push_back(rec.job_id);
        jobs_.emplace(rec.job_id, std::move(job));
        next_id_ = std::max(next_id_, rec.job_id + 1);
        totals_.submitted += 1;
        break;
      }
      case JournalRecord::Type::kStart:
        // A job left running re-enqueues and restarts from its spool
        // checkpoint. The dispatcher journals a start before every run and
        // a cache hit never runs, so a done job without one was a hit.
        started.insert(rec.job_id);
        break;
      case JournalRecord::Type::kCancel:
        if (jobs_.count(rec.job_id) == 0) {
          throw Error(ErrorCode::kServeJournalCorrupt,
                      "journal: cancel for unknown job " +
                          std::to_string(rec.job_id));
        }
        cancel_seen.insert(rec.job_id);
        break;
      case JournalRecord::Type::kDone: {
        Job* job = find_locked(rec.job_id);
        if (job == nullptr) {
          throw Error(ErrorCode::kServeJournalCorrupt,
                      "journal: done for unknown job " +
                          std::to_string(rec.job_id));
        }
        if (!job_state_terminal(rec.final_state)) {
          throw Error(ErrorCode::kServeJournalCorrupt,
                      "journal: done record with non-terminal state for job " +
                          std::to_string(rec.job_id));
        }
        // A duplicate done (e.g. appended twice around a crash) must not
        // double-count: the first record wins, replay stays idempotent.
        if (job_state_terminal(job->state)) break;
        settle_locked(*job, rec.final_state, rec.error_code,
                      std::move(rec.error));
        if (rec.final_state == JobState::kDone) {
          job->cached = started.count(rec.job_id) == 0;
          if (job->cached) totals_.cache_hits += 1;
          auto document =
              std::make_shared<const std::string>(std::move(rec.document));
          job->document = document->empty() || !job->key
                              ? std::move(document)
                              : cache_.insert(*job->key, std::move(document));
        }
        break;
      }
    }
  }

  // Second pass, submission order: settle every non-terminal job. A job
  // whose cancel was logged but never processed lands `cancelled` (and the
  // transition is journaled now, so a SECOND restart replays it as plain
  // terminal state and appends nothing — the journal converges bitwise).
  // Everything else re-enqueues; jobs with a spool checkpoint resume from
  // their finished prefix when the dispatcher reaches them.
  for (const std::uint64_t id : order) {
    Job* job = find_locked(id);
    if (job_state_terminal(job->state)) continue;
    if (cancel_seen.count(id) != 0) {
      finish_locked(*job, JobState::kCancelled, ErrorCode::kCancelled,
                    "cancelled (cancel replayed from journal)");
    } else {
      queue_.push_back(id);
    }
  }
  totals_.replayed = order.size();
}

std::optional<JobStatus> JobScheduler::status(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  const Job* job = find_locked(id);
  if (job == nullptr) return std::nullopt;
  JobStatus s;
  s.id = job->id;
  s.state = job->state;
  s.priority = job->priority;
  s.fingerprint = job->fingerprint;
  s.cached = job->cached;
  s.deadline_unix_ms = job->deadline_unix_ms;
  s.client = job->client;
  s.error = job->error;
  s.error_code = job->error_code;
  if (job->state == JobState::kCancelled || job->state == JobState::kFailed) {
    std::string path = spool_path(*job);
    if (!path.empty() && std::filesystem::exists(path)) {
      s.checkpoint_path = std::move(path);
    }
  }
  {
    const std::lock_guard<std::mutex> plock(job->progress_mu);
    s.units_total = job->units_total;
    s.units_done = job->units_done;
    s.points_total = job->sweep.size();
    s.points_done = job->points_done;
    s.degraded_points = job->degraded_points;
    if (job->ensemble) {
      // An ensemble's work units are its replicas.
      s.replicas_total = job->units_total;
      s.replicas_done = job->units_done;
    }
    for (std::size_t i = 0; i < job->sweep.size(); ++i) {
      if (job->sweep[i]) s.partial.emplace_back(i, *job->sweep[i]);
    }
  }
  return s;
}

SharedDocument JobScheduler::result(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Job* job = find_locked(id);
  if (job == nullptr) {
    throw Error(ErrorCode::kServeUnknownJob,
                "scheduler: unknown job " + std::to_string(id));
  }
  if (job->state != JobState::kDone) {
    throw Error(ErrorCode::kServeJobNotReady,
                "scheduler: job " + std::to_string(id) + " is " +
                    job_state_name(job->state) + ", not done");
  }
  return job->document;
}

bool JobScheduler::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  Job* job = find_locked(id);
  if (job == nullptr) {
    throw Error(ErrorCode::kServeUnknownJob,
                "scheduler: unknown job " + std::to_string(id));
  }
  if (job_state_terminal(job->state)) return false;
  // WAL: the cancel intent is durable before anything acts on it, so a
  // crash right here replays the job as cancelled, not as runnable.
  if (journal_) {
    JournalRecord rec;
    rec.type = JournalRecord::Type::kCancel;
    rec.job_id = id;
    journal_->append(rec);
  }
  if (job->state == JobState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    finish_locked(*job, JobState::kCancelled, ErrorCode::kCancelled,
                  "cancelled while queued");
    return true;
  }
  // Running: raise the token; the dispatcher records the terminal state
  // when the driver throws kCancelled at the next work-unit boundary.
  job->cancel.request_stop();
  return true;
}

JobScheduler::Stats JobScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = totals_;
  s.queued = queue_.size();
  s.running = running_id_ != 0 ? 1 : 0;
  s.threads = executor_.threads();
  return s;
}

void JobScheduler::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Idempotent, but still wake the dispatcher in case the first call
      // raced it.
      cv_.notify_all();
      deadline_cv_.notify_all();
    } else {
      stopping_ = true;
      // The running job checkpoints its finished units and stops at the
      // next boundary; queued jobs never start.
      if (running_id_ != 0) {
        if (Job* job = find_locked(running_id_)) job->cancel.request_stop();
      }
      for (const std::uint64_t id : queue_) {
        if (Job* job = find_locked(id)) {
          finish_locked(*job, JobState::kCancelled, ErrorCode::kCancelled,
                        "daemon shutdown");
        }
      }
      queue_.clear();
      cv_.notify_all();
      deadline_cv_.notify_all();
    }
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  if (deadline_monitor_.joinable()) deadline_monitor_.join();
}

void JobScheduler::dispatcher_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with nothing left to run
      // Highest priority first; the queue itself is submission-ordered, so
      // the first maximum is also the oldest — FIFO within a priority.
      auto best = queue_.begin();
      for (auto it = std::next(best); it != queue_.end(); ++it) {
        if (jobs_.at(*it)->priority > jobs_.at(*best)->priority) best = it;
      }
      job = jobs_.at(*best).get();
      queue_.erase(best);
      // A deadline that lapsed while the job waited: never start the
      // engine, fail it with the deadline code right here.
      if (job->deadline_unix_ms != 0 &&
          unix_now_ms() >= job->deadline_unix_ms) {
        finish_locked(*job, JobState::kFailed, ErrorCode::kDeadlineExceeded,
                      "job " + std::to_string(job->id) +
                          " missed its deadline while queued");
        continue;
      }
      job->state = JobState::kRunning;
      running_id_ = job->id;
      if (journal_) {
        JournalRecord rec;
        rec.type = JournalRecord::Type::kStart;
        rec.job_id = job->id;
        journal_->append(rec);
      }
    }
    execute(*job);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      running_id_ = 0;
    }
  }
}

void JobScheduler::deadline_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    if (deadlines_.empty()) {
      deadline_cv_.wait(lock);
      continue;
    }
    const std::uint64_t now = unix_now_ms();
    const std::uint64_t earliest = deadlines_.begin()->first;
    if (now < earliest) {
      deadline_cv_.wait_for(lock, std::chrono::milliseconds(earliest - now));
      continue;
    }
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      const std::uint64_t id = deadlines_.begin()->second;
      Job& job = *find_locked(id);
      if (job.state == JobState::kQueued) {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                     queue_.end());
        finish_locked(job, JobState::kFailed, ErrorCode::kDeadlineExceeded,
                      "job " + std::to_string(id) +
                          " missed its deadline while queued");
      } else {
        // Running: told to stop once, and execute() files the result.
        deadlines_.erase(deadlines_.begin());
        job.deadline_expired = true;
        job.cancel.request_stop();
      }
    }
  }
}

void JobScheduler::execute(Job& job) {
  // The run's inputs leave the job here and are freed when the run ends;
  // no other thread touches a running job's inputs.
  const std::unique_ptr<Job::Inputs> inputs = std::move(job.inputs);
  JobProgressSink sink(job);
  RunRequest& req = inputs->request;
  req.threads = executor_.threads();
  req.checkpoint_path = spool_path(job);
  if (!inputs->fault.empty()) req.fault_plan = &inputs->fault;
  req.executor = &executor_;
  req.cancel = &job.cancel;
  req.progress = &sink;

  SharedDocument document;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  try {
    const RunResult res = run(req);
    document =
        std::make_shared<const std::string>(res.to_json(/*canonical=*/true));
  } catch (const Error& e) {
    code = e.code() == ErrorCode::kNone ? ErrorCode::kUnknown : e.code();
    error = e.what();
  } catch (const std::exception& e) {
    code = ErrorCode::kUnknown;
    error = e.what();
  }

  if (code == ErrorCode::kNone) {
    if (job.key) document = cache_.insert(*job.key, std::move(document));
    if (!req.checkpoint_path.empty()) {
      // The run is reproducible from the cache (and from scratch); the
      // spool file has served its purpose.
      std::error_code ec;
      std::filesystem::remove(req.checkpoint_path, ec);
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  if (code == ErrorCode::kCancelled && job.deadline_expired) {
    // The stop token was raised by the deadline monitor, not a client:
    // this is a budget failure, filed under its own code so it can never
    // be mistaken for a cancel or a crash.
    code = ErrorCode::kDeadlineExceeded;
    error = "job " + std::to_string(job.id) +
            " missed its deadline while running";
  }
  // A cancel is not a defect: the controller asked. The spool checkpoint
  // of a cancelled or failed run stays on disk, so resubmitting the
  // identical request resumes from it.
  job.document = std::move(document);
  finish_locked(job,
                code == ErrorCode::kNone        ? JobState::kDone
                : code == ErrorCode::kCancelled ? JobState::kCancelled
                                                : JobState::kFailed,
                code, std::move(error));
}

}  // namespace semsim
