// Contract of the work-unit runner (analysis/units.h), at 1 and 8 threads:
// cancel -> checkpoint -> resume is bitwise lossless, attempts run on their
// derived retry streams, strict mode names the unit while non-strict mode
// degrades it, every unit is reported exactly once, and a cancellation
// raised inside a unit is never retried or recorded. The sequence runner
// appends every milestone, resumes from the newest, reports each milestone
// once, restored ones included, and ends when an advance finds the run
// exhausted. Unit engines handed
// the run's quasi-particle table share that one object, step bitwise like
// engines that built their own or were handed a pre-filled one, and refuse
// a table of another temperature or range; threads that fill one table's
// entries concurrently leave the bits a serial fill gives.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/sweep.h"
#include "analysis/units.h"
#include "base/constants.h"
#include "base/error.h"
#include "base/random.h"
#include "logic/devices.h"

namespace semsim {
namespace {

constexpr std::uint64_t kBase = 0x5EED;
constexpr std::size_t kUnits = 40;

/// A unit's result: one uniform draw from the attempt's stream, plus the
/// stream that produced it.
struct Draw : UnitWork {
  std::uint64_t seed = 0;
  double value = 0.0;
};

/// A checkpoint path unique to this process and call, removed afterwards.
class TempFile {
 public:
  explicit TempFile(const std::string& name) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".ckpt"))
                .string();
    std::filesystem::remove(path_);
  }
  ~TempFile() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Units whose body draws from the attempt's stream; `hook` runs first in
/// every attempt (to throw, cancel, or record the stream).
Units<Draw> draw_units(std::function<void(const UnitAttempt&)> hook = {}) {
  Units<Draw> units;
  units.count = kUnits;
  units.name = "probe";
  units.isolated = true;
  units.encode = [](BinaryWriter& w, const Draw& d) {
    w.u8(d.outcome.ok ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(d.outcome.code));
    w.u32(d.outcome.attempts);
    w.u64(d.seed);
    w.f64(d.value);
    encode_solver_stats(w, d.stats);
  };
  units.decode = [](BinaryReader& r, std::size_t) {
    Draw d;
    d.outcome.ok = r.u8() != 0;
    d.outcome.code = static_cast<ErrorCode>(r.u32());
    d.outcome.attempts = r.u32();
    d.seed = r.u64();
    d.value = r.f64();
    d.stats = decode_solver_stats(r);
    return d;
  };
  units.body = [hook](const UnitAttempt& a, Draw& d) {
    if (hook) hook(a);
    Xoshiro256 rng(a.seed());
    d.seed = a.seed();
    d.value = rng.uniform01();
    d.stats.events = a.unit + 1;
  };
  return units;
}

UnitContext context(unsigned threads) {
  return UnitContext{ParallelExecutor(threads), {}, nullptr, nullptr, {},
                     kBase};
}

void expect_same(const std::vector<Draw>& a, const std::vector<Draw>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].seed, b[u].seed) << "unit " << u;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[u].value),
              std::bit_cast<std::uint64_t>(b[u].value))
        << "unit " << u;
    EXPECT_EQ(a[u].outcome.attempts, b[u].outcome.attempts) << "unit " << u;
    EXPECT_EQ(a[u].stats.events, b[u].stats.events) << "unit " << u;
  }
}

class UnitRunner : public ::testing::TestWithParam<unsigned> {};

TEST_P(UnitRunner, CancelAfterUnitKResumesBitwise) {
  const UnitContext plain = context(GetParam());
  RunCounters ref_tally;
  const std::vector<Draw> ref = run_units(draw_units(), plain, &ref_tally);

  TempFile file("semsim_units_cancel");
  constexpr std::size_t kCancelAfter = 4;
  CancelToken cancel;
  UnitContext ctx = context(GetParam());
  ctx.checkpoint.path = file.path();
  ctx.cancel = &cancel;
  try {
    // Unit k raises the token and still finishes. Later units that started
    // alongside it hold their worker until then, so every unit picked up
    // afterwards sees the token: the run must stop short of the end.
    run_units(draw_units([&](const UnitAttempt& a) {
                if (a.unit == kCancelAfter) cancel.request_stop();
                while (a.unit > kCancelAfter && !cancel.stop_requested()) {
                  std::this_thread::yield();
                }
              }),
              ctx, nullptr);
    FAIL() << "a raised token must stop the run";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }

  // The file holds finished units only, each exactly its uninterrupted
  // payload; unit k itself finished before the cancel was seen.
  {
    const RunCheckpoint cp(file.path(), 0, kUnits);
    EXPECT_TRUE(cp.has(kCancelAfter));
    EXPECT_LT(cp.completed(), kUnits);
    if (GetParam() == 1) {
      EXPECT_EQ(cp.completed(), kCancelAfter + 1);
    }
    const Units<Draw> codec = draw_units();
    for (std::size_t u = 0; u < kUnits; ++u) {
      if (!cp.has(u)) continue;
      const std::vector<std::uint8_t> bytes = cp.payload(u);
      BinaryReader r(bytes);
      const Draw d = codec.decode(r, u);
      EXPECT_EQ(d.seed, ref[u].seed) << "unit " << u;
      EXPECT_EQ(d.value, ref[u].value) << "unit " << u;
    }
  }

  cancel.reset();
  RunCounters tally;
  const std::vector<Draw> resumed = run_units(draw_units(), ctx, &tally);
  expect_same(resumed, ref);
  EXPECT_EQ(tally.units, ref_tally.units);
  EXPECT_EQ(tally.stats.events, ref_tally.stats.events);
}

TEST_P(UnitRunner, AttemptsRunOnTheirRetryStreams) {
  std::mutex mu;
  std::vector<std::tuple<std::size_t, std::uint32_t, std::uint64_t>> seen;
  UnitContext ctx = context(GetParam());
  ctx.retry.max_attempts = 3;
  const std::vector<Draw> out = run_units(
      draw_units([&](const UnitAttempt& a) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          seen.emplace_back(a.unit, a.attempt, a.seed());
        }
        if (a.unit % 3 == 1 && a.attempt < 2) {
          throw InvariantViolation(ErrorCode::kNonFiniteRate, "poisoned");
        }
      }),
      ctx, nullptr);
  EXPECT_EQ(seen.size(), kUnits + 2 * (kUnits / 3));
  for (const auto& [unit, attempt, seed] : seen) {
    EXPECT_EQ(seed, retry_stream_seed(kBase, unit, attempt));
    if (attempt == 0) {
      EXPECT_EQ(seed, derive_stream_seed(kBase, unit));
    }
  }
  for (std::size_t u = 0; u < kUnits; ++u) {
    const bool retried = u % 3 == 1;
    EXPECT_TRUE(out[u].outcome.ok) << "unit " << u;
    EXPECT_EQ(out[u].outcome.attempts, retried ? 3u : 1u) << "unit " << u;
    EXPECT_EQ(out[u].outcome.code,
              retried ? ErrorCode::kNonFiniteRate : ErrorCode::kNone);
    EXPECT_EQ(out[u].seed, retry_stream_seed(kBase, u, retried ? 2 : 0));
  }
}

TEST_P(UnitRunner, StrictRethrowsWithTheUnitAndLenientDegrades) {
  const auto poison = [](const UnitAttempt& a) {
    if (a.unit == 2) {
      throw InvariantViolation(ErrorCode::kNonFiniteRate, "rate is nan");
    }
  };
  UnitContext strict = context(GetParam());
  strict.retry.strict = true;
  try {
    run_units(draw_units(poison), strict, nullptr);
    FAIL() << "strict mode swallowed the fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFiniteRate);
    EXPECT_NE(std::string(e.what()).find("probe 2"), std::string::npos)
        << e.what();
  }

  UnitContext lenient = context(GetParam());
  lenient.retry.max_attempts = 3;
  const std::vector<Draw> out =
      run_units(draw_units(poison), lenient, nullptr);
  EXPECT_FALSE(out[2].outcome.ok);
  EXPECT_EQ(out[2].outcome.code, ErrorCode::kNonFiniteRate);
  EXPECT_EQ(out[2].outcome.attempts, 3u);
  for (std::size_t u = 0; u < kUnits; ++u) {
    if (u == 2) continue;
    EXPECT_TRUE(out[u].outcome.ok) << "unit " << u;
    EXPECT_EQ(out[u].outcome.attempts, 1u) << "unit " << u;
  }
}

TEST_P(UnitRunner, EveryUnitIsReportedOnceRestoredOnesIncluded) {
  struct CountingSink : ProgressSink {
    std::atomic<std::uint64_t> started{0};
    std::mutex mu;
    std::vector<std::size_t> done;
    void on_run_started(std::uint64_t units, std::uint64_t) override {
      started += units;
    }
    void on_unit_done(std::size_t unit) override {
      const std::lock_guard<std::mutex> lock(mu);
      done.push_back(unit);
    }
  };
  TempFile file("semsim_units_progress");
  UnitContext ctx = context(GetParam());
  ctx.checkpoint.path = file.path();
  // Half the units on file first, then the full run restores them.
  {
    RunCheckpoint cp(file.path(), 0, kUnits);
    const Units<Draw> units = draw_units();
    const std::vector<Draw> ref =
        run_units(units, context(GetParam()), nullptr);
    for (std::size_t u = 0; u < kUnits; u += 2) {
      BinaryWriter w;
      units.encode(w, ref[u]);
      detail::encode_unit_work(w, ref[u]);
      cp.record(u, w.take());
    }
  }
  CountingSink sink;
  ctx.progress = &sink;
  std::atomic<std::size_t> ran{0};
  run_units(draw_units([&](const UnitAttempt&) { ++ran; }), ctx, nullptr);
  EXPECT_EQ(sink.started.load(), kUnits);
  EXPECT_EQ(ran.load(), kUnits / 2);
  std::vector<std::size_t> done = sink.done;
  std::sort(done.begin(), done.end());
  ASSERT_EQ(done.size(), kUnits);
  for (std::size_t u = 0; u < kUnits; ++u) EXPECT_EQ(done[u], u);
}

TEST_P(UnitRunner, CancelInsideAUnitIsNeitherRetriedNorRecorded) {
  TempFile file("semsim_units_inner_cancel");
  UnitContext ctx = context(GetParam());
  ctx.checkpoint.path = file.path();
  ctx.retry.max_attempts = 5;
  std::atomic<int> attempts_on_unit_1{0};
  try {
    run_units(draw_units([&](const UnitAttempt& a) {
                if (a.unit != 1) return;
                ++attempts_on_unit_1;
                throw Error(ErrorCode::kCancelled, "stopped inside the unit");
              }),
              ctx, nullptr);
    FAIL() << "an inner cancellation must propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(attempts_on_unit_1.load(), 1);
  const RunCheckpoint cp(file.path(), 0, kUnits);
  EXPECT_FALSE(cp.has(1));
}

INSTANTIATE_TEST_SUITE_P(Threads, UnitRunner, ::testing::Values(1u, 8u));

// ---- run_sequence ---------------------------------------------------------

constexpr std::size_t kMilestones = 8;

/// A sequence over one counter: milestone k adds k + 1 to it. advance(k)
/// for k >= exhausted_at ends the sequence.
struct Counter {
  std::uint64_t value = 0;
  std::vector<std::size_t> advanced;

  Sequence sequence(std::size_t exhausted_at = kMilestones) {
    Sequence seq;
    seq.count = kMilestones;
    seq.advance = [this, exhausted_at](std::size_t k) {
      if (k >= exhausted_at) return false;
      advanced.push_back(k);
      value += k + 1;
      return true;
    };
    seq.encode = [this](BinaryWriter& w) { w.u64(value); };
    seq.decode = [this](BinaryReader& r) { value = r.u64(); };
    return seq;
  }
};

/// Records every on_unit_done, and after each one what the checkpoint file
/// holds: how many milestones and whether that milestone is on file.
struct MilestoneSink : ProgressSink {
  std::string path;
  CancelToken* cancel = nullptr;
  std::size_t cancel_after = kMilestones;
  std::vector<std::size_t> done;
  std::vector<std::size_t> records;
  std::vector<bool> on_file;

  void on_unit_done(std::size_t unit) override {
    done.push_back(unit);
    if (!path.empty() && std::filesystem::exists(path)) {
      const RunCheckpoint cp(path, 0, kMilestones);
      records.push_back(cp.completed());
      on_file.push_back(cp.has(unit));
    }
    if (cancel != nullptr && unit == cancel_after) cancel->request_stop();
  }
};

std::vector<std::size_t> iota_to(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t k = 0; k < n; ++k) v[k] = k;
  return v;
}

TEST(RunSequence, AppendsEveryMilestoneAndReportsEachOnce) {
  TempFile file("semsim_sequence");
  CancelToken cancel;
  MilestoneSink first;
  first.path = file.path();
  first.cancel = &cancel;
  first.cancel_after = 3;
  UnitContext ctx = context(1);
  ctx.checkpoint.path = file.path();
  ctx.cancel = &cancel;
  ctx.progress = &first;
  Counter stopped;
  try {
    run_sequence(stopped.sequence(), ctx);
    FAIL() << "a raised token must stop the sequence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
  // Each milestone is appended before it is reported: the file holds
  // milestones 0..k when milestone k is reported.
  EXPECT_EQ(first.done, iota_to(4));
  EXPECT_EQ(first.records, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(first.on_file, std::vector<bool>(4, true));

  // Resume: milestones 0..3 are restored and reported once each, and only
  // the rest run.
  cancel.reset();
  MilestoneSink second;
  second.path = file.path();
  ctx.progress = &second;
  Counter resumed;
  run_sequence(resumed.sequence(), ctx);
  EXPECT_EQ(second.done, iota_to(kMilestones));
  EXPECT_EQ(resumed.advanced, (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(second.records,
            (std::vector<std::size_t>{4, 4, 4, 4, 5, 6, 7, 8}));
  EXPECT_EQ(resumed.value, 36u);
}

TEST(RunSequence, ExhaustedAdvanceEndsTheSequence) {
  MilestoneSink sink;
  UnitContext ctx = context(1);
  ctx.progress = &sink;
  Counter c;
  run_sequence(c.sequence(/*exhausted_at=*/5), ctx);
  EXPECT_EQ(c.advanced, iota_to(5));
  EXPECT_EQ(sink.done, iota_to(5));
  EXPECT_EQ(c.value, 15u);
}

// ---- one quasi-particle table per run ---------------------------------------

/// The Fig. 1c superconducting SET at +-2 mV.
SetTransistor sset() {
  return make_set(0.002, -0.002, 0.0, {.superconducting = kFig1cMaterial});
}

/// 0.3 K on an explicit +-40 meV table: it covers every free-energy change
/// of the +-2 mV operating points (the charging term is ~16 meV), yet is a
/// fifth of the default range, so it stays cheap under sanitizers.
EngineOptions sset_options() {
  EngineOptions o;
  o.temperature = 0.3;
  o.qp_table_half_range = 40e-3 * kElectronVolt;
  return o;
}

/// A unit engine's table and the hash of its first 500 events.
struct Trajectory : UnitWork {
  const QuasiparticleRate* table = nullptr;
  std::uint64_t hash = 0;
};

std::vector<Trajectory> run_trajectories(
    const SetTransistor& f,
    const std::shared_ptr<const ElectrostaticModel>& model,
    const std::shared_ptr<const QuasiparticleRate>& table, unsigned threads) {
  Units<Trajectory> units;
  units.count = 4;
  units.name = "trajectory";
  units.body = [&](const UnitAttempt& a, Trajectory& t) {
    Engine& e = a.engine(f.c, sset_options(), model, table);
    t.table = e.rate_calculator().qp_unit().get();
    BinaryWriter w;
    Event ev;
    for (int i = 0; i < 500 && e.step(&ev); ++i) {
      w.u8(static_cast<std::uint8_t>(ev.kind));
      w.u64(ev.index);
      w.f64(ev.dt);
      w.f64(ev.time);
    }
    t.hash = fnv1a64(w.bytes().data(), w.bytes().size());
  };
  return run_units(units, context(threads), nullptr);
}

bool same_entries(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class QpTableSharing : public ::testing::TestWithParam<unsigned> {};

TEST_P(QpTableSharing, UnitEnginesHoldTheRunTableAndStepLikePrivateOnes) {
  const auto f = sset();
  const auto model = std::make_shared<const ElectrostaticModel>(f.c);
  const auto table = build_qp_table(f.c, *model, sset_options());
  ASSERT_TRUE(table && table->has_table());
  // The same table with every entry filled before the first event.
  const auto filled = build_qp_table(f.c, *model, sset_options());
  const std::size_t points = filled->table_rate().size();
  ASSERT_EQ(filled->filled_entries(), points);
  const std::vector<Trajectory> shared =
      run_trajectories(f, model, table, GetParam());
  const std::vector<Trajectory> own =
      run_trajectories(f, model, nullptr, GetParam());
  const std::vector<Trajectory> prefilled =
      run_trajectories(f, model, filled, GetParam());
  ASSERT_EQ(shared.size(), own.size());
  ASSERT_EQ(prefilled.size(), own.size());
  for (std::size_t u = 0; u < shared.size(); ++u) {
    EXPECT_EQ(shared[u].table, table.get()) << "unit " << u;
    EXPECT_NE(own[u].table, table.get()) << "unit " << u;
    EXPECT_EQ(prefilled[u].table, filled.get()) << "unit " << u;
    EXPECT_EQ(shared[u].hash, own[u].hash) << "unit " << u;
    EXPECT_EQ(prefilled[u].hash, shared[u].hash) << "unit " << u;
  }
}

TEST(QpTableSharing, ConcurrentReadersFillEveryEntryWithTheSerialBits) {
  // Eight threads read one table at every grid midpoint, all in the same
  // order and released together, so they race to fill each entry. Every
  // entry must end memcmp-equal to a serial fill, and every read must equal
  // the serial table's.
  const auto f = sset();
  const auto model = std::make_shared<const ElectrostaticModel>(f.c);
  const auto shared = build_qp_table(f.c, *model, sset_options());
  const auto serial = build_qp_table(f.c, *model, sset_options());
  ASSERT_EQ(shared->filled_entries(), 0u);
  const std::vector<double> expect = serial->table_rate();
  const std::vector<double>& w = shared->table_w();
  std::vector<double> mid;
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    mid.push_back(0.5 * (w[i] + w[i + 1]));
  }

  constexpr unsigned kThreads = 8;
  std::vector<std::vector<double>> read(kThreads);
  std::atomic<unsigned> waiting{kThreads};
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      waiting.fetch_sub(1);
      while (waiting.load() != 0) std::this_thread::yield();
      for (const double x : mid) read[k].push_back(shared->rate_cached(x));
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(shared->filled_entries(), w.size());
  EXPECT_TRUE(same_entries(shared->table_rate(), expect));
  std::vector<double> serial_read;
  for (const double x : mid) serial_read.push_back(serial->rate_cached(x));
  for (unsigned k = 0; k < kThreads; ++k) {
    EXPECT_TRUE(same_entries(read[k], serial_read)) << "thread " << k;
  }
}

TEST_P(QpTableSharing, ParallelSsetSweepIsThreadCountInvariant) {
  // One point per unit: every point's engine reads the sweep's one table,
  // concurrently at 8 threads.
  const auto f = sset();
  IvSweepConfig cfg;
  cfg.swept = f.src;
  cfg.mirror = f.drn;
  cfg.from = -0.002;
  cfg.to = 0.002;
  cfg.step = 0.0005;
  cfg.probes = {{0, 1.0}, {1, -1.0}};
  cfg.measure.warmup_events = 100;
  cfg.measure.measure_events = 400;
  const ParallelSweepConfig par{kBase, 1};
  const std::vector<IvPoint> serial =
      run_iv_sweep(f.c, sset_options(), cfg, ParallelExecutor(1), par);
  const std::vector<IvPoint> pooled =
      run_iv_sweep(f.c, sset_options(), cfg, ParallelExecutor(GetParam()), par);
  ASSERT_EQ(serial.size(), 9u);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled[i].current),
              std::bit_cast<std::uint64_t>(serial[i].current))
        << "point " << i;
    EXPECT_EQ(pooled[i].events, serial[i].events) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, QpTableSharing, ::testing::Values(1u, 8u));

TEST(QpTableSharing, TableOfAnotherTemperatureOrRangeIsNotAdopted) {
  const auto f = sset();
  const auto model = std::make_shared<const ElectrostaticModel>(f.c);
  const EngineOptions eo = sset_options();
  EngineOptions warmer = eo;
  warmer.temperature = 0.31;
  EngineOptions wider = eo;
  wider.qp_table_half_range *= 2.0;
  const auto own = build_qp_table(f.c, *model, eo);
  for (const EngineOptions& other : {warmer, wider}) {
    const auto foreign = build_qp_table(f.c, *model, other);
    const Engine e(f.c, eo, model, foreign);
    const QuasiparticleRate& used = *e.rate_calculator().qp_unit();
    EXPECT_NE(&used, foreign.get());
    EXPECT_TRUE(same_entries(used.table_w(), own->table_w()));
    EXPECT_TRUE(same_entries(used.table_rate(), own->table_rate()));
  }
}

}  // namespace
}  // namespace semsim
