// Fig. 6 — simulation-time comparison over the 15 logic benchmarks:
// non-adaptive Monte-Carlo vs SEMSIM (adaptive) vs the SPICE-style
// analytical baseline.
//
// As in the paper, each simulator runs a fixed window of switching activity
// and the cost is extrapolated to 10 us of simulated time ("The running
// times for five of the larger benchmarks were extrapolated from shorter
// running times, and were adjusted for a circuit simulation time of 10 us").
// The paper's headline: the adaptive method is fastest where it matters,
// with >40x over non-adaptive at the largest benchmark, and adaptive times
// comparable to SPICE.
//
// Default mode runs all 15 benchmarks with reduced windows; --full enlarges
// the measured windows. SPICE runs are skipped above 2500 junctions unless
// --full (the paper likewise reports SPICE failures on several benchmarks).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "logic/benchmarks.h"
#include "logic/elaborate.h"
#include "logic/testbench.h"
#include "obs/checkpoint.h"
#include "spice/map_logic.h"

using namespace semsim;

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

namespace {

// Everything one benchmark contributes: the table row plus the lines to
// print. Units run concurrently under --threads, so nothing prints from
// inside a unit; rows come back and are emitted in benchmark order.
struct BenchRow {
  std::vector<double> row;
  std::string log;
  RunCounters counters;
};

std::vector<std::uint8_t> encode_bench_row(const BenchRow& r) {
  BinaryWriter w;
  w.vec_f64(r.row);
  w.str(r.log);
  w.u64(r.counters.units);
  w.u64(r.counters.stats.events);
  w.u64(r.counters.stats.all_rate_evaluations());
  w.u64(r.counters.stats.junctions_flagged);
  w.u64(r.counters.stats.full_refreshes);
  w.f64(r.counters.wall_seconds);
  return w.take();
}

BenchRow decode_bench_row(const std::vector<std::uint8_t>& bytes) {
  BinaryReader rd(bytes);
  BenchRow r;
  r.row = rd.vec_f64();
  r.log = rd.str();
  // The row keeps only the counters the report prints; every rate
  // evaluation kind comes back as one total.
  r.counters.units = rd.u64();
  r.counters.stats.events = rd.u64();
  r.counters.stats.rate_evaluations = rd.u64();
  r.counters.stats.junctions_flagged = rd.u64();
  r.counters.stats.full_refreshes = rd.u64();
  r.counters.wall_seconds = rd.f64();
  rd.require_done();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const double target_span = 10e-6;  // the paper's normalization

  std::printf("== Fig. 6: simulation-time comparison (extrapolated to 10 us) ==\n");
  TableWriter table({"junctions", "paper_junctions", "islands", "setup_s",
                     "nonadaptive_s", "semsim_adaptive_s", "spice_s",
                     "speedup_adaptive", "evals_per_event_nonadaptive",
                     "evals_per_event_adaptive"});
  table.add_comment("Fig. 6 reproduction; rows in paper order (see names below)");

  // Work units are whole benchmarks: the measured windows stay serial
  // inside a unit so their wall-clock ratios remain meaningful. The
  // adaptive-vs-non-adaptive comparison additionally rests on the
  // machine-independent evals/event columns.
  const ParallelExecutor exec(args.threads);
  if (exec.threads() > 1) {
    std::printf("# note: %u concurrent benchmarks share memory bandwidth; "
                "absolute wall times are inflated, ratios stay indicative\n",
                exec.threads());
  }
  const std::vector<LogicBenchmark> benches = make_all_benchmarks();

  // --checkpoint=FILE: each finished benchmark's row is recorded, so an
  // interrupted bench run resumes where it stopped instead of re-measuring
  // (restored rows keep their originally measured wall times).
  std::unique_ptr<RunCheckpoint> cp;
  if (!args.checkpoint.empty()) {
    BinaryWriter fp;
    fp.str("fig6");
    fp.u8(args.full ? 1 : 0);
    fp.u64(benches.size());
    cp = std::make_unique<RunCheckpoint>(
        args.checkpoint, fnv1a64(fp.bytes().data(), fp.bytes().size()),
        benches.size());
    if (cp->completed() > 0) {
      std::printf("# checkpoint %s: %zu/%zu benchmarks already done\n",
                  args.checkpoint.c_str(), cp->completed(), benches.size());
    }
  }

  const std::vector<BenchRow> rows =
      exec.map<BenchRow>(benches.size(), [&](std::size_t i) {
        if (cp && cp->has(i)) return decode_bench_row(cp->payload(i));
        const LogicBenchmark& b = benches[i];
        const std::size_t j = b.netlist.junction_count();
        BenchRow out;
        char buf[256];

        const auto t_setup = Clock::now();
        ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
        auto model = std::make_shared<const ElectrostaticModel>(elab.circuit());
        const double setup_s = seconds_since(t_setup);
        const std::size_t islands = model->island_count();

        const std::uint64_t base_events = args.full ? 20000 : 6000;
        const std::uint64_t events_small =
            j > 3000 ? base_events / 3 : base_events;

        PerfRunConfig ca;
        ca.events = events_small;
        ca.engine.adaptive.enabled = true;
        const PerfRunResult ra = run_performance_window(b, elab, model, ca);

        PerfRunConfig cn;
        cn.events = j > 3000 ? events_small / 2 : events_small;
        cn.engine.adaptive.enabled = false;
        const PerfRunResult rn = run_performance_window(b, elab, model, cn);

        const double t_adaptive =
            ra.wall_seconds / ra.simulated_seconds * target_span;
        const double t_nonadaptive =
            rn.wall_seconds / rn.simulated_seconds * target_span;

        double t_spice = std::nan("");
        if (j <= 2500 || args.full) {
          try {
            TransientOptions to;
            const double span = args.full ? 200e-9 : 60e-9;
            const SpicePerfResult rs =
                spice_performance_window(b, SetLogicParams{}, to, span);
            t_spice = rs.wall_seconds / rs.simulated_seconds * target_span;
          } catch (const NumericError& e) {
            std::snprintf(buf, sizeof(buf),
                          "  SPICE: non-convergence (%s) — reported like the "
                          "paper's SPICE failures\n",
                          e.what());
            out.log += buf;
          }
        } else {
          out.log += "  SPICE: skipped at this size (enable with --full)\n";
        }

        const double evals_n = static_cast<double>(rn.stats.rate_evaluations) /
                               static_cast<double>(rn.stats.events);
        const double evals_a = static_cast<double>(ra.stats.rate_evaluations) /
                               static_cast<double>(ra.stats.events);
        std::snprintf(buf, sizeof(buf),
                      "  non-adaptive %.3g s | SEMSIM %.3g s | SPICE %.3g s "
                      "| speedup %.1fx | evals/event %.0f -> %.1f\n",
                      t_nonadaptive, t_adaptive, t_spice,
                      t_nonadaptive / t_adaptive, evals_n, evals_a);
        out.log += buf;

        out.counters.threads = exec.threads();
        out.counters.wall_seconds = ra.wall_seconds + rn.wall_seconds;
        out.counters.stats += ra.stats;
        out.counters.stats += rn.stats;
        out.counters.units = 2;
        out.row = {static_cast<double>(j),
                   static_cast<double>(b.paper_junctions),
                   static_cast<double>(islands), setup_s, t_nonadaptive,
                   t_adaptive, t_spice, t_nonadaptive / t_adaptive, evals_n,
                   evals_a};
        if (cp) cp->record(i, encode_bench_row(out));
        return out;
      });

  RunCounters totals;
  totals.threads = exec.threads();
  for (std::size_t i = 0; i < benches.size(); ++i) {
    std::printf("[%s] %zu junctions (paper: %zu)\n", benches[i].name.c_str(),
                benches[i].netlist.junction_count(),
                benches[i].paper_junctions);
    std::fputs(rows[i].log.c_str(), stdout);
    table.add_row(TableWriter::cells(rows[i].row));
    totals.units += rows[i].counters.units;
    totals.stats += rows[i].counters.stats;
    totals.wall_seconds += rows[i].counters.wall_seconds;
  }
  bench::report_counters("fig6 windows (summed per-window wall)", totals);

  bench::emit(args, "fig6_performance", table);
  std::printf("paper expectation: speedup grows with junction count, "
              ">40x at the largest benchmark; adaptive comparable to SPICE.\n");
  return 0;
}
