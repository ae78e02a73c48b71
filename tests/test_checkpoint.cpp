// Checkpoint/resume layer (src/obs/checkpoint.h): binary codec round
// trips and corruption rejection, engine snapshot/restore bitwise
// continuation, RunCheckpoint file validation, and driver-level resume
// after a simulated mid-run abort — which must reproduce the
// uninterrupted run bit for bit at every thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/api.h"
#include "analysis/current.h"
#include "analysis/driver.h"
#include "analysis/sweep.h"
#include "base/error.h"
#include "base/random.h"
#include "core/engine.h"
#include "master/master_equation.h"
#include "netlist/parser.h"
#include "obs/checkpoint.h"

namespace semsim {
namespace {

// ---- binary codec ---------------------------------------------------------

TEST(BinaryCodec, RoundTripsEveryType) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(-1.5e-19);
  w.f64(0.0);
  w.str("semsim");
  w.vec_u64({1, 2, 3});
  w.vec_i64({-1, 0, 7});
  w.vec_f64({0.25, -0.5});
  w.vec_u8({9, 8});

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.5e-19);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.str(), "semsim");
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_i64(), (std::vector<long>{-1, 0, 7}));
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{0.25, -0.5}));
  EXPECT_EQ(r.vec_u8(), (std::vector<std::uint8_t>{9, 8}));
  EXPECT_EQ(r.remaining(), 0u);
  r.require_done();
}

TEST(BinaryCodec, TruncationAndTrailingBytesThrow) {
  BinaryWriter w;
  w.u64(77);
  BinaryReader short_read(w.bytes().data(), 5);
  EXPECT_THROW(short_read.u64(), Error);

  BinaryReader trailing(w.bytes());
  trailing.u32();
  EXPECT_THROW(trailing.require_done(), Error);

  // A vector length field pointing past the end of the buffer must throw,
  // not allocate.
  BinaryWriter bad;
  bad.u64(1ULL << 40);
  BinaryReader r(bad.bytes());
  EXPECT_THROW(r.vec_f64(), Error);
}

// ---- RNG state export/import ---------------------------------------------

TEST(RngState, RoundTripContinuesTheExactStream) {
  Xoshiro256 a(1234);
  for (int i = 0; i < 100; ++i) a();
  Xoshiro256 b(999);
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b()) << "draw " << i;

  // The all-zero state (xoshiro's fixed point, which would emit 0 forever)
  // is coerced to a valid state, never accepted verbatim.
  Xoshiro256 z(1);
  z.set_state({0, 0, 0, 0});
  bool saw_nonzero = false;
  for (int i = 0; i < 16; ++i) saw_nonzero = saw_nonzero || z() != 0;
  EXPECT_TRUE(saw_nonzero);
}

// ---- engine snapshot / restore -------------------------------------------

struct SetFixture {
  Circuit c;
  NodeId src, drn, gate, island;
  SetFixture() {
    src = c.add_external("src");
    drn = c.add_external("drn");
    gate = c.add_external("gate");
    island = c.add_island("island");
    c.add_junction(src, island, 1e6, 1e-18);
    c.add_junction(island, drn, 1e6, 1e-18);
    c.add_capacitor(gate, island, 3e-18);
    c.set_source(src, Waveform::dc(0.02));
    c.set_source(drn, Waveform::dc(-0.02));
    c.set_source(gate, Waveform::dc(0.0));
  }
};

EngineOptions engine_opts(bool adaptive, std::uint64_t seed = 11) {
  EngineOptions o;
  o.temperature = 5.0;
  o.adaptive.enabled = adaptive;
  o.seed = seed;
  return o;
}

void expect_engines_bitwise_equal(Engine& a, Engine& b) {
  EXPECT_EQ(a.time(), b.time());
  EXPECT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.junction_transferred_e(0), b.junction_transferred_e(0));
  EXPECT_EQ(a.junction_transferred_e(1), b.junction_transferred_e(1));
}

TEST(EngineSnapshot, RestoredEngineContinuesBitwise) {
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "non-adaptive");
    SetFixture f;
    Engine a(f.c, engine_opts(adaptive));
    a.run_events(500);

    // Serialize through the real codec so the full path is exercised.
    BinaryWriter w;
    encode_engine_snapshot(w, a.snapshot());
    BinaryReader r(w.bytes());
    const EngineSnapshot snap = decode_engine_snapshot(r);
    r.require_done();

    Engine b(f.c, engine_opts(adaptive, /*seed=*/4444));  // seed is replaced
    b.restore(snap);
    expect_engines_bitwise_equal(a, b);

    // The run continuing past snapshot() and the restored run must follow
    // the identical trajectory, event for event.
    a.run_events(2000);
    b.run_events(2000);
    expect_engines_bitwise_equal(a, b);
  }
}

TEST(EngineSnapshot, RestoreRejectsShapeMismatch) {
  SetFixture f;
  Engine a(f.c, engine_opts(true));
  a.run_events(100);
  EngineSnapshot snap = a.snapshot();

  Circuit other;
  const NodeId s = other.add_external("s");
  const NodeId d = other.add_external("d");
  const NodeId i1 = other.add_island("i1");
  const NodeId i2 = other.add_island("i2");
  other.add_junction(s, i1, 1e6, 1e-18);
  other.add_junction(i1, i2, 1e6, 1e-18);
  other.add_junction(i2, d, 1e6, 1e-18);
  Engine b(other, engine_opts(true));
  EXPECT_THROW(b.restore(snap), Error);
}

// ---- RunCheckpoint file layer --------------------------------------------

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(f)) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Header layout (checkpoint.h): magic@0, version@8, reserved@12,
// fingerprint@16, unit_count@24, record_count@32, records from byte 40 as
// [u64 unit | u64 len | payload | u64 checksum].
constexpr std::size_t kRecordCountOffset = 32;
constexpr std::size_t kFirstRecordOffset = 40;

/// Simulates a crash after `keep` completed units: truncates the file to
/// its first `keep` records (valid, since the file is rewritten atomically
/// after every unit — any prefix state is a state a real abort can leave).
void keep_first_records(const std::string& path, std::uint64_t keep) {
  std::vector<std::uint8_t> b = read_bytes(path);
  ASSERT_LE(keep, u64_at(b, kRecordCountOffset));
  std::size_t off = kFirstRecordOffset;
  for (std::uint64_t k = 0; k < keep; ++k) {
    const std::uint64_t len = u64_at(b, off + 8);
    off += 8 + 8 + static_cast<std::size_t>(len) + 8;
  }
  b.resize(off);
  put_u64(b, kRecordCountOffset, keep);
  write_bytes(path, b);
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(RunCheckpoint, RecordsPersistAcrossReopen) {
  TempFile tmp("/tmp/semsim_ckpt_basic.bin");
  {
    RunCheckpoint cp(tmp.path, /*fingerprint=*/7, /*unit_count=*/4);
    EXPECT_EQ(cp.completed(), 0u);
    cp.record(2, {1, 2, 3});
    cp.record(0, {});  // empty payloads are legal
    EXPECT_TRUE(cp.has(2));
    EXPECT_FALSE(cp.has(1));
    EXPECT_THROW(cp.record(4, {0}), Error);  // out of range
    EXPECT_THROW(cp.payload(1), Error);      // absent
  }
  RunCheckpoint back(tmp.path, 7, 4);
  EXPECT_EQ(back.completed(), 2u);
  EXPECT_EQ(back.payload(2), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(back.payload(0).empty());
}

TEST(RunCheckpoint, MissingResumeFileIsAnError) {
  EXPECT_THROW(
      RunCheckpoint("/tmp/semsim_ckpt_does_not_exist.bin", 1, 1,
                    /*require_existing=*/true),
      Error);
}

TEST(RunCheckpoint, RejectsCorruptAndMismatchedFiles) {
  TempFile tmp("/tmp/semsim_ckpt_corrupt.bin");
  {
    RunCheckpoint cp(tmp.path, 42, 3);
    cp.record(0, {10, 20, 30, 40});
    cp.record(1, {50});
  }
  const std::vector<std::uint8_t> good = read_bytes(tmp.path);

  // Pristine file reopens fine.
  EXPECT_NO_THROW(RunCheckpoint(tmp.path, 42, 3));

  // Wrong magic: not a checkpoint file at all.
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;
  write_bytes(tmp.path, bad);
  EXPECT_THROW(RunCheckpoint(tmp.path, 42, 3), Error);

  // Unsupported format version.
  bad = good;
  bad[8] += 1;
  write_bytes(tmp.path, bad);
  EXPECT_THROW(RunCheckpoint(tmp.path, 42, 3), Error);

  // Fingerprint mismatch: a different run's file must be refused.
  write_bytes(tmp.path, good);
  EXPECT_THROW(RunCheckpoint(tmp.path, 43, 3), Error);

  // Unit-count mismatch: same run identity but different decomposition.
  EXPECT_THROW(RunCheckpoint(tmp.path, 42, 5), Error);

  // Truncated mid-header and mid-record.
  bad = good;
  bad.resize(6);
  write_bytes(tmp.path, bad);
  EXPECT_THROW(RunCheckpoint(tmp.path, 42, 3), Error);
  bad = good;
  bad.resize(kFirstRecordOffset + 11);
  write_bytes(tmp.path, bad);
  EXPECT_THROW(RunCheckpoint(tmp.path, 42, 3), Error);

  // A flipped payload byte fails the record checksum.
  bad = good;
  bad[kFirstRecordOffset + 16] ^= 0x01;  // first payload byte of record 0
  write_bytes(tmp.path, bad);
  EXPECT_THROW(RunCheckpoint(tmp.path, 42, 3), Error);
}

// ---- driver-level resume: simulated mid-run abort -------------------------

constexpr char kSweepInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 3 0.0
symm 2
temp 5
record 1 2
jumps 2000
sweep 1 0.01 0.002
)";

DriverResult run_input(const char* text, unsigned threads,
                       const std::string& checkpoint = "",
                       const std::string& resume = "") {
  const SimulationInput input = parse_simulation_input(std::string(text));
  DriverOptions opt;
  opt.seed = 7;
  opt.threads = threads;
  opt.checkpoint_path = checkpoint;
  opt.resume_path = resume;
  return run_simulation(input, opt);
}

void expect_sweeps_bitwise_equal(const std::vector<IvPoint>& a,
                                 const std::vector<IvPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bias, b[i].bias) << "point " << i;
    EXPECT_EQ(a[i].current, b[i].current) << "point " << i;
    EXPECT_EQ(a[i].stderr_mean, b[i].stderr_mean) << "point " << i;
    EXPECT_EQ(a[i].rel_error, b[i].rel_error) << "point " << i;
    EXPECT_EQ(a[i].tau_int, b[i].tau_int) << "point " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "point " << i;
  }
}

TEST(DriverResume, SweepInterruptedAndResumedIsBitwiseIdentical) {
  TempFile tmp("/tmp/semsim_ckpt_sweep.bin");
  // Reference: the same run with no checkpointing at all (sweep-unit
  // checkpointing never perturbs the engines, so all three must agree).
  const DriverResult ref = run_input(kSweepInput, 1);
  ASSERT_FALSE(ref.sweep.empty());

  // Complete checkpointed run to produce a full unit file.
  const DriverResult full = run_input(kSweepInput, 1, tmp.path);
  expect_sweeps_bitwise_equal(ref.sweep, full.sweep);

  // Crash after 2 of the 6 sweep units, then resume — at 1 and 8 threads.
  keep_first_records(tmp.path, 2);
  const std::vector<std::uint8_t> interrupted = read_bytes(tmp.path);
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    write_bytes(tmp.path, interrupted);
    const DriverResult res = run_input(kSweepInput, threads, "", tmp.path);
    expect_sweeps_bitwise_equal(ref.sweep, res.sweep);
  }
}

TEST(DriverResume, MismatchedConfigurationIsRefused) {
  TempFile tmp("/tmp/semsim_ckpt_mismatch.bin");
  run_input(kSweepInput, 1, tmp.path);
  const SimulationInput input = parse_simulation_input(std::string(kSweepInput));
  DriverOptions opt;
  opt.seed = 8;  // different seed -> different run fingerprint
  opt.resume_path = tmp.path;
  EXPECT_THROW(run_simulation(input, opt), Error);
}

constexpr char kRepeatsInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
record 1 2
jumps 1500 6
)";

TEST(DriverResume, RepeatsInterruptedAndResumedIsBitwiseIdentical) {
  TempFile tmp("/tmp/semsim_ckpt_repeats.bin");
  const DriverResult ref = run_input(kRepeatsInput, 1);
  ASSERT_TRUE(ref.current.has_value());

  run_input(kRepeatsInput, 1, tmp.path);
  keep_first_records(tmp.path, 3);  // crash after 3 of the 6 repeats
  const std::vector<std::uint8_t> interrupted = read_bytes(tmp.path);
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    write_bytes(tmp.path, interrupted);
    const DriverResult res = run_input(kRepeatsInput, threads, "", tmp.path);
    ASSERT_TRUE(res.current.has_value());
    EXPECT_EQ(ref.current->mean, res.current->mean);
    EXPECT_EQ(ref.current->stderr_mean, res.current->stderr_mean);
    EXPECT_EQ(ref.simulated_time, res.simulated_time);
    EXPECT_EQ(ref.events, res.events);
  }
}

constexpr char kTransientInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
record 1 2
time 2e-7
)";

/// Raises `cancel` once work unit `after` is done, so the run stops before
/// the next one: an interruption at a unit boundary.
class CancelAfterUnit : public ProgressSink {
 public:
  CancelAfterUnit(CancelToken& cancel, std::size_t after)
      : cancel_(cancel), after_(after) {}
  void on_unit_done(std::size_t unit) override {
    if (unit == after_) cancel_.request_stop();
  }

 private:
  CancelToken& cancel_;
  std::size_t after_;
};

/// Runs `options` cancelled after unit `after`; the run must stop with
/// kCancelled and leave its checkpoint behind.
void run_cancelled_after(const SimulationInput& input, DriverOptions options,
                         std::size_t after) {
  CancelToken cancel;
  CancelAfterUnit sink(cancel, after);
  options.cancel = &cancel;
  options.progress = &sink;
  try {
    run_simulation(input, options);
    FAIL() << "the run finished despite the cancel after unit " << after;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled) << e.what();
  }
}

TEST(DriverResume, TransientInterruptedAndResumedIsBitwiseIdentical) {
  // The reference is the COMPLETE checkpointed run — interrupted + resumed
  // must match it exactly.
  TempFile tmp("/tmp/semsim_ckpt_transient.bin");
  const DriverResult ref = run_input(kTransientInput, 1, tmp.path);
  ASSERT_TRUE(ref.current.has_value());

  // Cancel in the middle of the 33 milestones.
  std::remove(tmp.path.c_str());
  DriverOptions opt;
  opt.seed = 7;
  opt.checkpoint_path = tmp.path;
  run_cancelled_after(parse_simulation_input(std::string(kTransientInput)),
                      opt, 9);
  const DriverResult res = run_input(kTransientInput, 1, "", tmp.path);
  ASSERT_TRUE(res.current.has_value());
  EXPECT_EQ(ref.current->mean, res.current->mean);
  EXPECT_EQ(ref.current->sim_time, res.current->sim_time);
  EXPECT_EQ(ref.simulated_time, res.simulated_time);
  EXPECT_EQ(ref.events, res.events);
}

/// The canonical document of `text` at seed 7 with an audit every 500
/// events, so resumed runs must also carry the audits of restored work.
std::string audited_document(const char* text, const std::string& checkpoint,
                             const std::string& resume) {
  RunRequest req;
  req.input = parse_simulation_input(std::string(text));
  req.seed = 7;
  req.audit.interval = 500;
  req.checkpoint_path = checkpoint;
  req.resume_path = resume;
  return run(req).to_json(/*canonical=*/true);
}

TEST(DriverResume, TransientIsOneDocumentPlainCheckpointedAndResumed) {
  TempFile tmp("/tmp/semsim_ckpt_transient_doc.bin");
  const std::string plain = audited_document(kTransientInput, "", "");
  EXPECT_EQ(audited_document(kTransientInput, tmp.path, ""), plain);

  std::remove(tmp.path.c_str());
  DriverOptions opt;
  opt.seed = 7;
  opt.audit.interval = 500;
  opt.checkpoint_path = tmp.path;
  run_cancelled_after(parse_simulation_input(std::string(kTransientInput)),
                      opt, 9);
  EXPECT_EQ(audited_document(kTransientInput, "", tmp.path), plain);
}

TEST(DriverResume, ResumedSweepKeepsTheAuditTrail) {
  TempFile tmp("/tmp/semsim_ckpt_sweep_audits.bin");
  const std::string ref = audited_document(kSweepInput, "", "");
  ASSERT_NE(ref.find("\"audits_run\":"), std::string::npos);
  ASSERT_EQ(ref.find("\"audits_run\":0"), std::string::npos);
  audited_document(kSweepInput, tmp.path, "");
  keep_first_records(tmp.path, 2);  // crash after 2 of the 6 chunks
  EXPECT_EQ(audited_document(kSweepInput, "", tmp.path), ref);
}

TEST(DriverResume, VersionTwoCheckpointIsRefused) {
  TempFile tmp("/tmp/semsim_ckpt_v2.bin");
  run_input(kRepeatsInput, 1, tmp.path);
  std::vector<std::uint8_t> b = read_bytes(tmp.path);
  for (int i = 0; i < 4; ++i) b[8 + i] = i == 0 ? 2 : 0;  // format version
  write_bytes(tmp.path, b);
  try {
    run_input(kRepeatsInput, 1, "", tmp.path);
    FAIL() << "a version 2 checkpoint was resumed";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointMismatch) << e.what();
  }
}

// ---- convergence-based stopping -------------------------------------------

TEST(Convergence, StopsWhenTargetRelErrorIsMet) {
  SetFixture f;  // conducting bias point: plenty of signal
  Engine engine(f.c, engine_opts(true));
  StopCriterion stop;
  stop.target_rel_error = 0.1;
  stop.max_events = 2000000;
  stop.check_interval = 2048;
  const ConvergedCurrentResult r =
      measure_current_converged(engine, {{0, 1.0}, {1, 1.0}}, 500, stop);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.rel_error, 0.1);
  EXPECT_GT(r.estimate.events, 0u);
  EXPECT_LT(r.estimate.events, stop.max_events);
  EXPECT_NE(r.estimate.mean, 0.0);
  EXPECT_EQ(r.estimate.stderr_mean, r.samples.binned_error());
  EXPECT_GE(r.tau_int, 0.0);
}

TEST(Convergence, StuckEngineReportsExactZeroAsConverged) {
  // T = 0 with no bias: every rate is 0, the engine can never fire an
  // event, and the physical steady-state current is exactly zero.
  SetFixture f;
  f.c.set_source(f.src, Waveform::dc(0.0));
  f.c.set_source(f.drn, Waveform::dc(0.0));
  EngineOptions o;
  o.temperature = 0.0;
  o.seed = 3;
  Engine engine(f.c, o);
  StopCriterion stop;
  stop.target_rel_error = 0.01;
  stop.max_events = 100000;
  const ConvergedCurrentResult r =
      measure_current_converged(engine, {{0, 1.0}, {1, 1.0}}, 100, stop);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.estimate.mean, 0.0);
  EXPECT_EQ(r.rel_error, 0.0);
}

TEST(Convergence, EventCapStopsAnUnconvergedRun) {
  SetFixture f;
  Engine engine(f.c, engine_opts(true));
  StopCriterion stop;
  stop.target_rel_error = 1e-6;  // unreachable in this budget
  stop.max_events = 4000;
  const ConvergedCurrentResult r =
      measure_current_converged(engine, {{0, 1.0}, {1, 1.0}}, 500, stop);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.estimate.events, 4000u);
  EXPECT_GT(r.rel_error, 1e-6);
}

constexpr char kConvergedRepeatsInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
record 1 2
jumps 60000 4
)";

TEST(Convergence, MergedRepeatStatisticsThreadCountIndependent) {
  const SimulationInput input =
      parse_simulation_input(std::string(kConvergedRepeatsInput));
  std::vector<DriverResult> results;
  for (const unsigned threads : {1u, 8u}) {
    DriverOptions opt;
    opt.seed = 21;
    opt.threads = threads;
    opt.stop.target_rel_error = 0.2;
    results.push_back(run_simulation(input, opt));
  }
  for (const DriverResult& r : results) {
    ASSERT_TRUE(r.converged.has_value());
    ASSERT_TRUE(r.current.has_value());
    EXPECT_TRUE(r.converged->converged);
    EXPECT_LE(r.converged->rel_error, 0.2);
    EXPECT_GT(r.converged->samples.count(), 0u);
  }
  // Merged (index-order) statistics must be bitwise thread-count
  // independent, exactly like the fixed-budget paths.
  EXPECT_EQ(results[0].current->mean, results[1].current->mean);
  EXPECT_EQ(results[0].current->stderr_mean, results[1].current->stderr_mean);
  EXPECT_EQ(results[0].converged->rel_error, results[1].converged->rel_error);
  EXPECT_EQ(results[0].converged->tau_int, results[1].converged->tau_int);
  EXPECT_EQ(results[0].converged->samples.count(),
            results[1].converged->samples.count());
}

/// A conducting SET point (40 mV bias, 20 mV gate, 5 K) where the mean of
/// the per-chunk currents read 6.7 % above the master equation.
std::string conducting_set_input(const char* jumps) {
  return std::string(R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.04
vdc 2 -0.04
vdc 3 0.02
temp 5
record 1 2
jumps )") + jumps + "\n";
}

/// Checks a convergence-stopped run against the master-equation current
/// within max(5 sigma, 2 %).
void expect_matches_master_equation(const std::string& text) {
  const SimulationInput input = parse_simulation_input(text);
  DriverOptions opt;
  opt.seed = 1;
  opt.stop.target_rel_error = 0.005;
  const DriverResult r = run_simulation(input, opt);
  ASSERT_TRUE(r.current.has_value());
  EngineOptions eo;
  eo.temperature = input.temperature;
  const double i_me = MasterEquationSolver(input.circuit, eo).junction_current(0);
  const double tol =
      std::max(5.0 * r.current->stderr_mean, 0.02 * std::abs(i_me));
  EXPECT_NEAR(r.current->mean, i_me, tol)
      << "sigma " << r.current->stderr_mean;
}

TEST(Convergence, CurrentMatchesMasterEquation) {
  expect_matches_master_equation(conducting_set_input("50000"));
}

TEST(Convergence, MergedRepeatCurrentMatchesMasterEquation) {
  expect_matches_master_equation(conducting_set_input("20000 4"));
}

std::uint64_t header_fingerprint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  BinaryReader r(bytes);
  r.u64();  // magic
  r.u32();  // format version
  r.u32();  // reserved
  return r.u64();
}

TEST(Convergence, ChunkMeanCheckpointIsRejected) {
  // Header fingerprints of the checkpoints that builds reporting the mean
  // of the per-chunk currents wrote for `jumps 20000 2` at seed 1: with
  // target_rel_error 0.01, and on the fixed budget.
  constexpr std::uint64_t kChunkMeanConvergence = 0x75ac7e9c39a3cd3fULL;
  constexpr std::uint64_t kFixedBudget = 0x658446a195d09e23ULL;
  const SimulationInput input =
      parse_simulation_input(conducting_set_input("20000 2"));

  // A partial checkpoint of the old estimator must not resume into the
  // new one: it fails with a coded error.
  TempFile old_file("/tmp/semsim_ckpt_chunk_mean.bin");
  RunCheckpoint(old_file.path, kChunkMeanConvergence, 2, false, false)
      .record(0, {1, 2, 3});
  DriverOptions opt;
  opt.seed = 1;
  opt.stop.target_rel_error = 0.01;
  opt.resume_path = old_file.path;
  try {
    run_simulation(input, opt);
    FAIL() << "a chunk-mean convergence checkpoint was resumed";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointMismatch) << e.what();
  }

  // Fixed-budget runs keep their fingerprint, so their checkpoints resume.
  TempFile fixed("/tmp/semsim_ckpt_fixed_budget.bin");
  DriverOptions fixed_opt;
  fixed_opt.seed = 1;
  fixed_opt.checkpoint_path = fixed.path;
  run_simulation(input, fixed_opt);
  EXPECT_EQ(header_fingerprint(fixed.path), kFixedBudget);
}

TEST(Convergence, SweepPointsCarryErrorColumnsAndStayDeterministic) {
  const SimulationInput input = parse_simulation_input(std::string(kSweepInput));
  std::vector<DriverResult> results;
  for (const unsigned threads : {1u, 8u}) {
    DriverOptions opt;
    opt.seed = 5;
    opt.threads = threads;
    opt.stop.target_rel_error = 0.25;
    opt.stop.max_events = 40000;
    results.push_back(run_simulation(input, opt));
  }
  expect_sweeps_bitwise_equal(results[0].sweep, results[1].sweep);
  ASSERT_FALSE(results[0].sweep.empty());
  for (const IvPoint& p : results[0].sweep) {
    EXPECT_GT(p.events, 0u);
    // Either the target was met or the cap ended the point.
    EXPECT_TRUE(p.rel_error <= 0.25 || p.events >= 40000)
        << "bias " << p.bias << " rel " << p.rel_error;
  }
}

}  // namespace
}  // namespace semsim
