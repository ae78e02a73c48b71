#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "base/random.h"
#include "core/engine.h"
#include "netlist/electrostatics.h"
#include "obs/checkpoint.h"

namespace semsim::bench {

namespace {

thread_local std::vector<std::int64_t> t_open;  // open span indices
thread_local std::string t_trace;

double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ---- tracing -----------------------------------------------------------

void Tracer::Scope::attr(const std::string& key, const std::string& value) {
  if (index_ < 0) return;
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[static_cast<std::size_t>(index_)].attrs.emplace_back(key,
                                                                       value);
}

double Tracer::Scope::end() {
  if (!open_) return seconds_;
  open_ = false;
  const std::int64_t end = now_ns();
  seconds_ = static_cast<double>(end - start_) * 1e-9;
  if (index_ >= 0) {
    {
      const std::lock_guard<std::mutex> lock(tracer_->mu_);
      tracer_->spans_[static_cast<std::size_t>(index_)].end = end;
    }
    const auto it = std::find(t_open.begin(), t_open.end(), index_);
    if (it != t_open.end()) t_open.erase(it);
  }
  return seconds_;
}

Tracer::Scope Tracer::span(const std::string& name) {
  const std::int64_t start = now_ns();
  std::int64_t index = -1;
  if (enabled_) {
    Span s;
    s.name = name;
    s.trace = t_trace;
    s.start = start;
    s.parent = t_open.empty() ? -1 : t_open.back();
    const std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    t_open.push_back(index);
  }
  return Scope(this, index, start);
}

void Tracer::set_trace(const std::string& id) { t_trace = id; }

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start) * 1e-9;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_name[s.name] += static_cast<double>(s.end - s.start) * 1e-9 - child[i];
  }
  std::vector<std::pair<std::string, double>> out(by_name.begin(),
                                                  by_name.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string text;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter w;
    w.begin_object();
    w.field("span", std::uint64_t{i});
    w.field("name", s.name);
    w.field("trace", s.trace);
    w.field("parent", std::int64_t{s.parent});
    w.field("start_ns", std::int64_t{s.start});
    w.field("end_ns", std::int64_t{s.end});
    w.key("attrs").begin_object();
    for (const auto& [k, v] : s.attrs) w.field(k, v);
    w.end_object();
    w.end_object();
    text += w.take();
    text += '\n';
  }
  write_file(path, text);
}

// ---- statistics --------------------------------------------------------

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  if (v.size() == 1) {
    s.q1 = s.median = s.q3 = v.front();
    return s;
  }
  // statistics.quantiles(v, n=4), method "exclusive".
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  s.q1 = q[0];
  s.median = q[1];
  s.q3 = q[2];
  return s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  const double pos = q * static_cast<double>(v.size() + 1);  // 1-based
  const double j = std::clamp(std::floor(pos), 1.0,
                              static_cast<double>(v.size() - 1));
  const double frac = std::clamp(pos - j, 0.0, 1.0);
  const std::size_t k = static_cast<std::size_t>(j);
  return v[k - 1] + frac * (v[k] - v[k - 1]);
}

// ---- report ------------------------------------------------------------

void Report::metric(const std::string& name, const std::string& unit,
                    std::vector<double> samples) {
  const double value = median_of(samples);
  metric(name, unit, value, std::move(samples));
}

void Report::metric(const std::string& name, const std::string& unit,
                    double value, std::vector<double> samples) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  tally(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = Metric{unit, value, std::move(samples)};
}

bool Report::tally(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Report::has(const std::string& name) const {
  return metrics_.find(name) != metrics_.end();
}

void Report::print_lines(const std::string& workload) const {
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    const Summary s = m.samples.empty() ? summarize({m.value})
                                        : summarize(m.samples);
    std::printf("%s %s %.6g %s (%zu, %.6g, %.6g, %.6g, %.6g)\n", name.c_str(),
                workload.c_str(), m.value, m.unit.c_str(), s.n, s.min, s.q1,
                s.q3, s.max);
  }
}

std::string Report::to_json(const Options& opt) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "semsim.benchmark_run/v1");
  w.field("workload", opt.workload);
  w.field("seed", opt.seed);
  w.field("trace", opt.trace);
  w.field("correct", failed_ == 0);
  w.field("attempted", attempted_);
  w.field("failed", failed_);
  w.key("metrics").begin_object();
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    const Summary s = m.samples.empty() ? summarize({m.value})
                                        : summarize(m.samples);
    w.key(name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.field("n", std::uint64_t{s.n});
    w.field("min", s.min);
    w.field("q1", s.q1);
    w.field("q3", s.q3);
    w.field("max", s.max);
    w.key("samples").begin_array();
    for (const double x : m.samples) w.value(x);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("counts").begin_object();
  for (const auto& [k, v] : counts_) w.field(k, v);
  w.end_object();
  w.key("hashes").begin_object();
  for (const auto& [k, v] : hashes_) w.field(k, v);
  w.end_object();
  w.key("notes").begin_object();
  for (const auto& [k, v] : notes_) w.field(k, v);
  w.end_object();
  w.key("failures").begin_array();
  for (const std::string& f : failures_) w.value(f);
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Report::result_line(const std::vector<std::string>& names) const {
  JsonWriter w;
  w.begin_object();
  w.field("correct", failed_ == 0);
  w.field("attempted", attempted_);
  w.field("failed", failed_);
  w.key("metrics").begin_object();
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    w.key(name).begin_object();
    w.field("value", it->second.value);
    w.field("unit", it->second.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

// ---- result documents --------------------------------------------------

void DocCounts::add(const JsonValue& doc, std::size_t doc_bytes) {
  const JsonValue& stats = doc.at("stats");
  const auto field = [&stats](const char* name) {
    return stats.at(name).as_number();
  };
  documents += 1;
  bytes += static_cast<double>(doc_bytes);
  events += doc.at("events").as_number();
  rate_evals += field("rate_evaluations") + field("cp_rate_evaluations") +
                field("cot_rate_evaluations");
  flagged += field("junctions_flagged");
  full_refreshes += field("full_refreshes");
  units += doc.at("counters").at("units").as_number();
  audits += doc.at("integrity").at("audits_run").as_number();
  integrity_issues +=
      static_cast<double>(doc.at("integrity").at("issues").items().size());
  degraded += doc.at("degraded").as_bool() ? 1 : 0;
  if (doc.find("sweep") == nullptr) {
    detail_events += field("events");
    cp_evals += field("cp_rate_evaluations");
    cot_evals += field("cot_rate_evaluations");
    potential_updates += field("potential_node_updates");
    tested += field("junctions_tested");
    flagged_of_tested += field("junctions_flagged");
    source_updates += field("source_updates");
  }
}

void DocCounts::report_ratios(Report& r) const {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.metric("core.rate_evals_per_event", "count", ratio(rate_evals, events));
  r.metric("core.flagged_fraction", "ratio", ratio(flagged_of_tested, tested));
  r.metric("core.potential_updates_per_event", "count",
           ratio(potential_updates, detail_events));
  r.metric("core.full_refreshes_per_event", "count",
           ratio(full_refreshes, events));
  r.metric("core.source_updates_per_mevent", "count",
           1e6 * ratio(source_updates, detail_events));
  r.metric("physics.cp_evals_per_event", "count",
           ratio(cp_evals, detail_events));
  r.metric("physics.cot_evals_per_event", "count",
           ratio(cot_evals, detail_events));
  r.metric("guard.audits_per_mevent", "count", 1e6 * ratio(audits, events));
  r.metric("analysis.units", "count", units);
  r.metric("io.doc_bytes", "B", ratio(bytes, documents));
}

void DocCounts::report_counts(Report& r) const {
  const std::string prefix = "doc.";
  r.count(prefix + "documents", documents);
  r.count(prefix + "events", events);
  r.count(prefix + "rate_evaluations", rate_evals);
  r.count(prefix + "units", units);
  r.count(prefix + "junctions_flagged", flagged);
  r.count(prefix + "full_refreshes", full_refreshes);
  r.count(prefix + "audits_run", audits);
  r.count(prefix + "integrity_issues", integrity_issues);
  r.count(prefix + "degraded", degraded);
  r.count(prefix + "bytes", bytes);
  r.count(prefix + "detail.events", detail_events);
  r.count(prefix + "detail.cp_rate_evaluations", cp_evals);
  r.count(prefix + "detail.cot_rate_evaluations", cot_evals);
  r.count(prefix + "detail.potential_node_updates", potential_updates);
  r.count(prefix + "detail.junctions_tested", tested);
  r.count(prefix + "detail.source_updates", source_updates);
}

std::string fnv1a_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

OpResult run_to_document(Tracer& tracer, const std::string& name,
                         const std::function<SimulationInput()>& make_input,
                         const RunRequest& options, const std::string& path) {
  OpResult r;
  Tracer::Scope op = tracer.span("bench.op");
  op.attr("input", name);
  RunRequest req = options;
  {
    const std::int64_t t0 = now_ns();
    req.input = make_input();
    r.input_s = seconds_since(t0);
  }
  RunResult res;
  {
    Tracer::Scope s = tracer.span("analysis.run");
    res = run(req);
    r.run_s = s.end();
  }
  {
    Tracer::Scope s = tracer.span("io.to_json");
    r.doc = res.to_json(true);
    r.json_s = s.end();
  }
  {
    Tracer::Scope s = tracer.span("io.write");
    write_file(path, r.doc);
  }
  r.wall_s = op.end();
  return r;
}

// ---- host speed --------------------------------------------------------

HostClock::HostClock(double compute_share)
    : compute_share_(compute_share),
      compute_table_(std::size_t{1} << 12, 1.0),
      memory_table_(static_cast<std::size_t>(kTableMiB) << 18, 1u) {}

double HostClock::calibrate() {
  static volatile double sink = 0.0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Compute: L1-resident, so the cache the timed call leaves behind does
  // not move it; the median drops a run the scheduler interrupted.
  double acc = 0.0;
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t v = next();
      double& t = compute_table_[v & (compute_table_.size() - 1)];
      t = 0.999 * t + std::exp(-1e-7 * static_cast<double>(v >> 40));
      acc += t;
    }
    runs.push_back(seconds_since(t0));
  }
  const double compute_s = median_of(runs);
  // Memory: each address depends on the last load, so the walk waits on
  // the memory hierarchy rather than overlapping its misses.
  std::uint32_t chain = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 50000; ++i) {
    std::uint32_t& m =
        memory_table_[(next() ^ chain) & (memory_table_.size() - 1)];
    m += 1;
    chain += m;
  }
  const double memory_s = seconds_since(t0);
  sink = acc + chain;
  const double slowdown =
      std::pow(compute_s / kReferenceComputeS, compute_share_) *
      std::pow(memory_s / kReferenceMemoryS, 1.0 - compute_share_);
  slowdowns_.push_back(slowdown);
  return slowdown;
}

double HostClock::time(const std::function<void()>& fn) {
  const double before = slowdowns_.empty() ? calibrate() : slowdowns_.back();
  const std::int64_t t0 = now_ns();
  fn();
  const double raw = seconds_since(t0);
  raw_.push_back(raw);
  return raw / (0.5 * (before + calibrate()));
}

void report_host(const HostClock& clock, Report& report) {
  report.metric("host.slowdown", "ratio", clock.slowdowns());
  report.metric("host.raw_call_s", "s", clock.raw());
}

std::vector<double> run_schedule(int n_ops, int n_setup,
                                 const std::function<void(int)>& op,
                                 const std::function<double()>& setup) {
  std::vector<double> setup_s;
  for (int k = 0; k < n_ops; ++k) {
    op(k);
    while (static_cast<int>(setup_s.size()) < (k + 1) * n_setup / n_ops) {
      setup_s.push_back(setup());
    }
  }
  return setup_s;
}

double probe_ns_per_event(Tracer& tracer, const std::string& name,
                          const Circuit& circuit, const EngineOptions& options,
                          double window_s) {
  Tracer::Scope probe = tracer.span("bench.probe");
  probe.attr("circuit", name);
  std::optional<Engine> engine;
  {
    Tracer::Scope s = tracer.span("core.engine");
    engine.emplace(circuit, options);
  }
  const auto advance = [&](std::uint64_t n) {
    const std::uint64_t done = engine->run_events(n);
    if (done == 0) {
      throw std::runtime_error("probe " + name + ": engine stuck");
    }
    return done;
  };
  {
    Tracer::Scope s = tracer.span("core.run_events");
    s.attr("phase", "warmup");
    for (std::uint64_t warmed = 0; warmed < 20000;) warmed += advance(4096);
  }
  std::vector<double> ns;
  for (int w = 0; w < 3; ++w) {
    Tracer::Scope s = tracer.span("core.run_events");
    s.attr("phase", "window");
    const std::int64_t t0 = now_ns();
    double events = 0;
    double dt = 0;
    do {
      events += static_cast<double>(advance(2048));
      dt = seconds_since(t0);
    } while (dt < window_s);
    ns.push_back(dt * 1e9 / events);
  }
  return median_of(ns);
}

double time_model_build(Tracer& tracer, const Circuit& circuit) {
  circuit.build_caches();
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope s = tracer.span("netlist.model_build");
    const ElectrostaticModel model(circuit);
    t.push_back(s.end());
  }
  return median_of(t);
}

// ---- OS helpers --------------------------------------------------------

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void remove_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  return derive_stream_seed(derive_stream_seed(seed, stream), index) &
         ((std::uint64_t{1} << 53) - 1);
}

}  // namespace semsim::bench
