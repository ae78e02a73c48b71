// Shared plumbing of the end-to-end benchmark: options, spans, metric
// records, result-document counts, probes and small OS helpers.
//
// The benchmark drives the program only through its stable entry points
// (analysis/api.h run(), the .sem parser, ElectrostaticModel, Engine's
// constructor and run_events, MasterEquationSolver, the logic generators,
// ServeClient and the semsim_serve daemon). Every count it reports is read
// back from the versioned result document, never from in-memory counters,
// so a later refactor of the counter types needs no benchmark edit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/api.h"
#include "io/json.h"

namespace semsim::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;  ///< traced pass: spans + per-layer metrics
  std::string out_dir = "bench_out/benchmark";
  std::string serve_bin;  ///< path of the semsim_serve daemon binary
};

/// Worker threads of the in-process run() workloads. One: the reference
/// machine's 4 vCPUs are shared with other tenants, and a 4-thread
/// operation waits for its slowest worker, so it measures the host's load
/// more than the program. Documents are identical at every thread count,
/// and the traced pass still measures the 4-thread speedup.
constexpr unsigned kThreads = 1;

// Every workload runs a fixed number of operations (its kOps, or kRequests
// on served_mix), chosen so one untraced run measures about 15 s — the
// run_seconds of BENCHMARK.json — on the reference machine. The work never
// depends on a time budget or on measured speed, so every count and
// document repeats exactly for a given seed.

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();
double seconds_since(std::int64_t t0_ns);

// ---- tracing -----------------------------------------------------------

/// In-memory span recorder. A span is opened around every call into a
/// layer's public function; the parent is the innermost span open on the
/// same thread and the trace id is the thread's current one (workload plus
/// repeat). Untraced runs still time every scope but record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span on destruction. Returned by value only through
  /// guaranteed copy elision, so it is neither copyable nor movable.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }

    void attr(const std::string& key, const std::string& value);
    /// Closes the span (idempotent) and returns its duration in seconds.
    double end();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::int64_t index, std::int64_t start)
        : tracer_(tracer), index_(index), start_(start) {}

    Tracer* tracer_;
    std::int64_t index_;  ///< -1 when not recorded
    std::int64_t start_;
    double seconds_ = 0.0;
    bool open_ = true;
  };

  Scope span(const std::string& name);
  /// Trace id for spans opened on the calling thread from now on.
  static void set_trace(const std::string& id);

  std::size_t size() const;

  /// Self time (duration minus child coverage) summed per span name.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  /// One JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string trace;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
    std::vector<std::pair<std::string, std::string>> attrs;
  };

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

// ---- results -----------------------------------------------------------

struct Summary {
  std::size_t n = 0;
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};

/// Quartiles by the "exclusive" method of Python's statistics.quantiles.
Summary summarize(std::vector<double> samples);
/// Percentile q in (0, 1) by the same method (clamped to the sample range).
double percentile(std::vector<double> samples, double q);

class Report {
 public:
  /// A metric with its samples (value = their median unless given).
  void metric(const std::string& name, const std::string& unit,
              std::vector<double> samples);
  void metric(const std::string& name, const std::string& unit, double value,
              std::vector<double> samples = {});
  /// An exact count (repeats bit for bit for a given seed).
  void count(const std::string& name, double value) { counts_[name] = value; }
  void hash(const std::string& name, const std::string& hex) {
    hashes_[name] = hex;
  }
  /// One attempted operation or check; a failure is printed to stderr.
  bool tally(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  std::uint64_t failed() const noexcept { return failed_; }
  bool has(const std::string& name) const;

  /// `metric workload value unit (n, min, q1, q3, max)` per metric.
  void print_lines(const std::string& workload) const;
  /// The full record: every sample, count, hash, failure and note.
  std::string to_json(const Options& opt) const;
  /// The one-line result object over the named metrics.
  std::string result_line(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string unit;
    double value = 0;
    std::vector<double> samples;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> counts_;
  std::map<std::string, std::string> hashes_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- host speed --------------------------------------------------------

/// Times calls in reference-host seconds.
///
/// The reference machine is a VM on a shared host whose speed changes by up
/// to 1.7x, for seconds to minutes at a time, with no CPU steal to show for
/// it: another tenant's load slows this one's instructions and memory
/// accesses. Raw walls of identical work then spread by 20-40 % over ten
/// runs. So every timed call is bracketed by a calibration (the
/// benchmark's own code, never the program's) that measures how much
/// slower than the reference machine's median the host runs right now,
/// and its wall is divided by the mean of the two slowdowns around it. A
/// change to the program moves the scaled time as it moves the raw one; a
/// change in host speed moves the calibration too and cancels.
///
/// A calibration times two kernels: a compute kernel (exp() and
/// read-modify-writes over a 32 KiB table, as in the event loop; median of
/// five short runs) and a memory kernel (a dependent random walk over a
/// 64 MiB table). The host slows them by different factors, and the
/// workloads feel those factors in different proportions, so the slowdown
/// is their weighted geometric mean, compute^share x memory^(1 - share).
class HostClock {
 public:
  /// Median kernel times on the reference machine.
  static constexpr double kReferenceComputeS = 0.00085;
  static constexpr double kReferenceMemoryS = 0.0088;
  /// Size of the memory kernel's table, resident for the clock's lifetime;
  /// peak_rss_mb() of a workload that holds a HostClock excludes it.
  static constexpr double kTableMiB = 64.0;

  /// `compute_share` weighs the compute kernel against the memory kernel:
  /// kComputeBound or kMemoryBound by the workload's working set.
  explicit HostClock(double compute_share);

  /// Runs `fn` and returns its wall in reference-host seconds.
  double time(const std::function<void()>& fn);

  /// Raw wall of every timed call, and every slowdown.
  const std::vector<double>& raw() const { return raw_; }
  const std::vector<double>& slowdowns() const { return slowdowns_; }

 private:
  double calibrate();

  double compute_share_;
  std::vector<double> compute_table_;
  std::vector<std::uint32_t> memory_table_;
  std::vector<double> raw_;
  std::vector<double> slowdowns_;
};

/// Compute shares of a HostClock. Small circuits (the devices, the chain)
/// keep their state in L1/L2 and slow down with the compute kernel; the
/// large fabric's 10 MB model slows down with the memory kernel. Either
/// kernel alone, or an even blend, left one of them as noisy as raw walls.
constexpr double kComputeBound = 0.75;
constexpr double kMemoryBound = 0.25;

/// The untraced schedule of a compute workload: `op(k)` for k =
/// 0..n_ops-1, with `n_setup` `setup()` calls spread evenly after them, so
/// the set-up median samples the whole run rather than its first second
/// and never includes the process's cold start. Returns what the set-ups
/// return.
std::vector<double> run_schedule(int n_ops, int n_setup,
                                 const std::function<void(int)>& op,
                                 const std::function<double()>& setup);

/// Reports the raw walls and slowdowns behind `clock`'s times.
void report_host(const HostClock& clock, Report& report);

// ---- result documents --------------------------------------------------

/// Work counts summed over canonical result documents. Sweep documents
/// carry only events, total rate evaluations, flags and full refreshes
/// (the other solver fields read 0 there), so the per-event ratios of those
/// fields are taken over the documents that report them.
struct DocCounts {
  double documents = 0;
  double events = 0;
  double rate_evals = 0;  ///< single-electron/QP + Cooper-pair + cotunneling
  double units = 0;
  double flagged = 0;
  double full_refreshes = 0;
  double audits = 0;
  double integrity_issues = 0;
  double degraded = 0;
  double bytes = 0;
  // Only from documents without a sweep table:
  double detail_events = 0;
  double cp_evals = 0;
  double cot_evals = 0;
  double potential_updates = 0;
  double tested = 0;
  double flagged_of_tested = 0;
  double source_updates = 0;

  void add(const JsonValue& doc, std::size_t doc_bytes);
  /// Writes the per-layer document ratios into `r`.
  void report_ratios(Report& r) const;
  /// Writes the exact totals as `doc.*` counts.
  void report_counts(Report& r) const;
};

/// FNV-1a 64 of the bytes as 16 hex digits (canonical-document identity).
std::string fnv1a_hex(const std::string& bytes);

/// One user operation: input -> run() -> canonical document written to
/// `path`. Each step is a span; the returned document is the canonical
/// bytes. `make_input` runs inside the op (parse or elaborate).
struct OpResult {
  std::string doc;
  double input_s = 0, run_s = 0, json_s = 0;
  double wall_s = 0;
};
OpResult run_to_document(Tracer& tracer, const std::string& name,
                         const std::function<SimulationInput()>& make_input,
                         const RunRequest& options, const std::string& path);

/// Steady-state cost of Engine::run_events on `circuit`: 20k warm-up
/// events, then the median of three windows of at least `window_s`.
double probe_ns_per_event(Tracer& tracer, const std::string& name,
                          const Circuit& circuit, const EngineOptions& options,
                          double window_s = 0.2);

/// Median wall of ElectrostaticModel(circuit) over three builds.
double time_model_build(Tracer& tracer, const Circuit& circuit);

// ---- OS helpers --------------------------------------------------------

double peak_rss_mb();  ///< ru_maxrss of this process
void write_file(const std::string& path, const std::string& bytes);
std::uint64_t file_size(const std::string& path);
void remove_file(const std::string& path);

// ---- workloads ---------------------------------------------------------

void run_device_iv(const Options& opt, Tracer& tracer, Report& report);
void run_ensemble_chain(const Options& opt, Tracer& tracer, Report& report);
void run_logic_fabric(const Options& opt, Tracer& tracer, Report& report);
void run_served_mix(const Options& opt, Tracer& tracer, Report& report);

/// Seed of generated input `index` of a stream, derived from the benchmark
/// seed; kept below 2^53 so it travels exactly as a JSON number.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index);

}  // namespace semsim::bench
