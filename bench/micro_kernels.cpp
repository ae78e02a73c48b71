// Micro-benchmarks of the kernels the Fig. 6 cost model is built from:
// tunnel-rate evaluations, free-energy updates, event sampling, and whole
// Monte-Carlo steps for both solvers on parametric chain circuits.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/constants.h"
#include "base/fenwick.h"
#include "base/random.h"
#include "core/engine.h"
#include "io/envelope.h"
#include "linalg/cholesky.h"
#include "logic/devices.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "obs/checkpoint.h"
#include "physics/bcs.h"
#include "physics/cooper_pair.h"
#include "physics/cotunneling.h"
#include "physics/qp_rate.h"
#include "physics/rates.h"
#include "serve/journal.h"
#include "serve/scheduler.h"
#include "spice/set_model.h"

namespace semsim {
namespace {

void BM_OrthodoxRate(benchmark::State& state) {
  double w = -1e-21;
  for (auto _ : state) {
    benchmark::DoNotOptimize(orthodox_rate(w, 1e6, 1.0));
    w = -w;
  }
}
BENCHMARK(BM_OrthodoxRate);

// --- batch rate kernels (physics/rates.h) ------------------------------
// Per-element cost of the hot-path kernel two ways: a scalar call loop
// (what the engine did before the SoA batch path) and the batch kernel.
// Thermal inputs spanning the interesting |delta_w/kT| range keep every
// lane on the expm1-bound branch; items_processed is elements, so the
// reported items/sec compares directly.

constexpr double kBatchResistance = 1e6;
constexpr double kBatchTemperature = 1.0;

void fill_batch_inputs(std::size_t n, std::vector<double>& dw,
                       std::vector<double>& g) {
  dw.resize(n);
  g.resize(n);
  Xoshiro256 rng(11);
  const double kt = kBoltzmann * kBatchTemperature;
  for (std::size_t i = 0; i < n; ++i) {
    // |x| in [1e-3, 50] kT, both signs: the expm1 branch.
    dw[i] = (2.0 * rng.uniform01() - 1.0) * 50.0 * kt;
    g[i] = 1.0 / (kElementaryCharge * kElementaryCharge * kBatchResistance);
  }
}

void BM_TunnelRatesScalarLoop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> dw, g, out(n);
  fill_batch_inputs(n, dw, g);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = orthodox_rate(dw[i], kBatchResistance, kBatchTemperature);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TunnelRatesScalarLoop)->Arg(16)->Arg(256)->Arg(4096);

void BM_TunnelRatesBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> dw, g, out(n);
  fill_batch_inputs(n, dw, g);
  const double kt = kBoltzmann * kBatchTemperature;
  for (auto _ : state) {
    tunnel_rates_batch(dw.data(), g.data(), kt, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TunnelRatesBatch)->Arg(16)->Arg(256)->Arg(4096);

// The exact rate memo (physics/rates.h) beside the kernel it memoizes:
// every probe hits (each channel cycles through the four values its line
// holds) or every probe misses (five values cycle, so first-in-first-out
// replacement has always just dropped the one asked for). With
// BM_TunnelRatesBatch's per-element cost c_direct, the memo pays above the
// hit rate (c_miss - c_direct) / (c_miss - c_hit): the break-even behind
// the engine's one-half rule.
void run_memo_bench(benchmark::State& state, std::size_t values) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> dw(values);
  std::vector<double> g, out(n);
  for (std::size_t k = 0; k < values; ++k) {
    fill_batch_inputs(n, dw[k], g);
    for (double& x : dw[k]) x *= 1.0 + 0.01 * static_cast<double>(k);
  }
  const double kt = kBoltzmann * kBatchTemperature;
  std::vector<RateMemoLine> memo(n);
  for (std::size_t k = 0; k < values; ++k) {
    tunnel_rates_batch_memo(dw[k].data(), g.data(), kt, memo.data(),
                            out.data(), n);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tunnel_rates_batch_memo(
        dw[k].data(), g.data(), kt, memo.data(), out.data(), n));
    benchmark::ClobberMemory();
    k = k + 1 == values ? 0 : k + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_RateMemoHit(benchmark::State& state) { run_memo_bench(state, 4); }
BENCHMARK(BM_RateMemoHit)->Arg(16)->Arg(256)->Arg(4096);

void BM_RateMemoMiss(benchmark::State& state) { run_memo_bench(state, 5); }
BENCHMARK(BM_RateMemoMiss)->Arg(16)->Arg(256)->Arg(4096);

void BM_TunnelRatesBatchT0(benchmark::State& state) {
  // T = 0 limit: the branch the chain perf-gate cases exercise. Pure
  // max + multiply, should autovectorize.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> dw, g, out(n);
  fill_batch_inputs(n, dw, g);
  for (auto _ : state) {
    tunnel_rates_batch(dw.data(), g.data(), 0.0, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TunnelRatesBatchT0)->Arg(16)->Arg(256)->Arg(4096);

void BM_QpRateDirectIntegral(benchmark::State& state) {
  const double d = 0.21e-3 * kElectronVolt;
  QuasiparticleRate qp({2.1e5, d, d, 0.52});
  double w = -3.0 * d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.rate(w));
  }
}
BENCHMARK(BM_QpRateDirectIntegral);

void BM_QpRateCachedLookup(benchmark::State& state) {
  const double d = 0.21e-3 * kElectronVolt;
  QuasiparticleRate qp({2.1e5, d, d, 0.52});
  qp.build_table(-6.0 * d, 6.0 * d);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const double w = (2.0 * rng.uniform01() - 1.0) * 5.0 * d;
    benchmark::DoNotOptimize(qp.rate_cached(w));
  }
}
BENCHMARK(BM_QpRateCachedLookup);

// The quasi-particle grid an engine builds at set-up: the Fig. 1c SSET's
// unit-resistance table at 50 mK over the +-259.8 meV its default rule
// gives a sweep from 0 V (11,301 points). Entries are integrated on first
// read, so this times no integral (BM_QpRateDirectIntegral times one).
void BM_QpTableBuild(benchmark::State& state) {
  const double d = bcs_gap(0.2e-3 * kElectronVolt, 1.2, 0.05);
  const double half = 259.8e-3 * kElectronVolt;
  std::size_t points = 0;
  for (auto _ : state) {
    QuasiparticleRate qp({1.0, d, d, 0.05});
    qp.build_table(-half, half);
    points = qp.table_w().size();
    benchmark::DoNotOptimize(points);
  }
  state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_QpTableBuild)->Unit(benchmark::kMillisecond);

void BM_CooperPairRate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cooper_pair_rate(1e-23, 5e-25, 6e-25));
  }
}
BENCHMARK(BM_CooperPairRate);

void BM_CotunnelingRate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cotunneling_rate(-1e-22, 2e-21, 2e-21, 1e6, 1e6, 1.0));
  }
}
BENCHMARK(BM_CotunnelingRate);

// Batched SoA cotunneling kernel (the engine's secondary-refresh path) over
// the enumerated paths of a multi-island chain. items/sec is paths/sec.
void BM_CotunnelingRatesBatch(benchmark::State& state) {
  const Circuit c = make_set_chain(64);
  const ElectrostaticModel em(c);
  EngineOptions o;
  o.temperature = 1.0;
  o.cotunneling = true;
  const RateCalculator calc(c, em, o);
  const auto& paths = calc.cotunneling_paths();
  std::vector<std::uint32_t> cot_slot;
  for (const CotunnelingPath& p : paths) {
    cot_slot.push_back(static_cast<std::uint32_t>(p.from));
    cot_slot.push_back(static_cast<std::uint32_t>(p.via));
    cot_slot.push_back(static_cast<std::uint32_t>(p.to));
  }
  std::vector<double> v(c.node_count());
  Xoshiro256 rng(5);
  for (double& x : v) x = (rng.uniform01() - 0.5) * 0.01;
  std::vector<double> out(paths.size());
  for (auto _ : state) {
    calc.cotunneling_rates_batch(v.data(), cot_slot.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_CotunnelingRatesBatch);

void BM_SetCompactModel(benchmark::State& state) {
  SetModelParams m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set_drain_current(m, 0.02, 0.0, 0.015, 0.0));
  }
}
BENCHMARK(BM_SetCompactModel);

void BM_FenwickSetAndSample(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  FenwickTree t(n);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < n; ++i) t.set(i, rng.uniform01() * 1e9);
  for (auto _ : state) {
    t.set(rng.uniform_below(n), rng.uniform01() * 1e9);
    benchmark::DoNotOptimize(t.sample(rng.uniform01() * t.total()));
  }
}
BENCHMARK(BM_FenwickSetAndSample)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EngineStepAdaptive(benchmark::State& state) {
  const Circuit c = make_set_chain(static_cast<int>(state.range(0)));
  EngineOptions o;
  o.temperature = 0.0;
  o.adaptive.enabled = true;
  Engine e(c, o);
  for (auto _ : state) {
    if (!e.step()) state.SkipWithError("engine stuck");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(e.event_count()));
}
BENCHMARK(BM_EngineStepAdaptive)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_EngineStepNonAdaptive(benchmark::State& state) {
  const Circuit c = make_set_chain(static_cast<int>(state.range(0)));
  EngineOptions o;
  o.temperature = 0.0;
  o.adaptive.enabled = false;
  Engine e(c, o);
  for (auto _ : state) {
    if (!e.step()) state.SkipWithError("engine stuck");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(e.event_count()));
}
BENCHMARK(BM_EngineStepNonAdaptive)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_CholeskyInverse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = 0.1 * rng.uniform01();
      a(i, j) = -v;
      a(j, i) = -v;
    }
    a(i, i) = 2.0 + static_cast<double>(n) * 0.1;
  }
  for (auto _ : state) {
    CholeskyDecomposition chol(a);
    benchmark::DoNotOptimize(chol.inverse());
  }
}
BENCHMARK(BM_CholeskyInverse)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The whole model build (C_II assembly, inverse, flush, S) on a seeded
// 4-block fabric of range(0) junctions per block (the benchmark's
// logic_fabric is 4 x 384): the narrow-profile case, beside the dense
// no-profile BM_CholeskyInverse.
void BM_ElectrostaticModel(benchmark::State& state) {
  const Circuit c =
      make_logic_fabric(4, static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) {
    const ElectrostaticModel model(c);
    benchmark::DoNotOptimize(model.kappa_row(0));
  }
  state.counters["islands"] = static_cast<double>(ElectrostaticModel(c).island_count());
}
BENCHMARK(BM_ElectrostaticModel)
    ->Arg(128)
    ->Arg(384)
    ->Unit(benchmark::kMillisecond);

// The factor alone: the CholeskyDecomposition constructor on the 4 x 384
// fabric's C_II, stamped as the model stamps it (the copy it consumes is
// made outside the timed region).
void BM_CholeskyFactor(benchmark::State& state) {
  const Circuit c = make_logic_fabric(4, 384, 11);
  const ElectrostaticModel model(c);
  Matrix c_ii(model.island_count(), model.island_count());
  for (const CapacitiveElement& e : model.capacitive_elements()) {
    const int ia = model.island_index(e.a);
    const int ib = model.island_index(e.b);
    const auto a = static_cast<std::size_t>(ia);
    const auto b = static_cast<std::size_t>(ib);
    if (ia >= 0) c_ii(a, a) += e.capacitance;
    if (ib >= 0) c_ii(b, b) += e.capacitance;
    if (ia >= 0 && ib >= 0) {
      c_ii(a, b) -= e.capacitance;
      c_ii(b, a) -= e.capacitance;
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a = c_ii;
    state.ResumeTiming();
    const CholeskyDecomposition chol(std::move(a));
    benchmark::DoNotOptimize(chol.l().row_data(0));
  }
  state.counters["islands"] = static_cast<double>(c_ii.rows());
}
BENCHMARK(BM_CholeskyFactor)->Unit(benchmark::kMillisecond);

/// The SET sweep every journal benchmark submits.
constexpr char kJournalNetlist[] =
    "num ext 3\nnum nodes 4\njunc 1 1 4 1meg 1a\njunc 2 4 2 1meg 1a\n"
    "cap 3 4 3a\nvdc 3 0.0\nsymm 2\ntemp 5\nrecord 1 2\n"
    "jumps 2000\nsweep 1 0.01 0.002\n";

// Opening the daemon's job journal on a restart: the file mapped, every
// body checksummed (FNV-1a, four frames at a time), then each frame
// decoded where it lies. 1,000 submit + done pairs carrying 4 KB documents
// (4.54 MB), written once; the file is whole, so no open truncates
// anything.
void BM_JournalReplay(benchmark::State& state) {
  const std::string path =
      "/tmp/semsim_bm_journal." + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  {
    RequestEnvelope env;
    env.verb = RequestEnvelope::Verb::kSubmit;
    env.netlist = kJournalNetlist;
    JobJournal journal(path);
    JournalRecord submit;
    submit.type = JournalRecord::Type::kSubmit;
    JournalRecord done;
    done.type = JournalRecord::Type::kDone;
    done.document.assign(4096, 'd');
    for (std::uint64_t id = 1; id <= 1000; ++id) {
      env.seed = id;
      submit.job_id = id;
      submit.envelope_json = encode_request_envelope(env);
      journal.append(submit);
      done.job_id = id;
      journal.append(done);
    }
  }
  for (auto _ : state) {
    JobJournal journal(path);
    benchmark::DoNotOptimize(journal.take_records());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * std::filesystem::file_size(path)));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalReplay)->Unit(benchmark::kMillisecond);

// A daemon restart: JobScheduler construction, journal replay included,
// on a served-like journal of 1,200 finished jobs, one netlist submitted
// with fresh seeds. Three in four ran (submit, start, done); every fourth
// is a cache hit on the seed before it (submit, done, no start). Each
// done carries a 3.7 KB document. No job is left to run or cancel, so the
// replay appends nothing and every iteration replays the same bytes. The
// scheduler's shutdown (thread joins) is not timed.
void BM_ServeRestart(benchmark::State& state) {
  const std::string path =
      "/tmp/semsim_bm_restart." + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  {
    RequestEnvelope env;
    env.verb = RequestEnvelope::Verb::kSubmit;
    env.netlist = kJournalNetlist;
    JobJournal journal(path);
    JournalRecord submit;
    submit.type = JournalRecord::Type::kSubmit;
    JournalRecord start;
    start.type = JournalRecord::Type::kStart;
    JournalRecord done;
    done.type = JournalRecord::Type::kDone;
    for (std::uint64_t id = 1; id <= 1200; ++id) {
      const bool hit = id % 4 == 0;
      if (!hit) env.seed += 1;
      submit.job_id = id;
      submit.envelope_json = encode_request_envelope(env);
      journal.append(submit);
      if (!hit) {
        start.job_id = id;
        journal.append(start);
      }
      done.job_id = id;
      done.document = std::to_string(env.seed) + std::string(3700, 'd');
      journal.append(done);
    }
  }
  SchedulerConfig config;
  config.journal_path = path;
  const std::uintmax_t bytes = std::filesystem::file_size(path);
  for (auto _ : state) {
    auto scheduler = std::make_unique<JobScheduler>(config);
    benchmark::DoNotOptimize(scheduler.get());
    state.PauseTiming();
    scheduler.reset();
    state.ResumeTiming();
  }
  if (std::filesystem::file_size(path) != bytes) {
    state.SkipWithError("the replay appended to the journal");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 1200));
  std::remove(path.c_str());
}
BENCHMARK(BM_ServeRestart)->Unit(benchmark::kMillisecond);

// A run's checkpoint writes: open a fresh file, then record every unit as
// it finishes. One iteration is device_iv's cot_sweep shape, 25 sweep
// units of 170 B (one bias point each), then a set_transient shape, 33
// milestones of 259 B recorded as a sequence does; both payload sizes are
// those of the SET inputs in examples/service.
void BM_CheckpointRecord(benchmark::State& state) {
  const std::string path =
      "/tmp/semsim_bm_checkpoint." + std::to_string(::getpid()) + ".ckpt";
  const std::vector<std::uint8_t> unit(170, 0x5A);
  const std::vector<std::uint8_t> milestone(259, 0xA5);
  for (auto _ : state) {
    std::remove(path.c_str());
    {
      RunCheckpoint sweep(path, /*fingerprint=*/1, /*unit_count=*/25);
      for (std::size_t u = 0; u < 25; ++u) sweep.record(u, unit);
    }
    std::remove(path.c_str());
    RunCheckpoint sequence(path, /*fingerprint=*/2, /*unit_count=*/33);
    for (std::size_t k = 0; k < 33; ++k) {
      sequence.record(k, milestone, /*only=*/true);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 58));
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointRecord)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semsim
