// Shared plumbing for the figure-reproduction benches: flag parsing and
// dual output (stdout + bench_out/*.tsv).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/options.h"
#include "io/table_writer.h"
#include "netlist/circuit.h"

namespace semsim::bench {

/// A chain of SET stages (the Fig. 4 / Fig. 6 scaling scenario): n stages =
/// 2n junctions and n islands, biased at +-10 mV. Shared by the step
/// micro-benchmarks and the perf gate so both time the same circuit.
///
/// With coupling_f = 0 (the default) the stages are electrically isolated:
/// an event on stage s perturbs only its own two junctions, so the adaptive
/// solver flags every junction it tests and flagged_fraction is exactly 1 —
/// a degenerate workload for the flagged-subset machinery. coupling_f > 0
/// adds a capacitor of that value between neighbouring islands, making
/// events nudge the neighbours' potentials weakly: the neighbours' junctions
/// get TESTED by the staleness criterion but (for small enough coupling)
/// not FLAGGED, which is the partial-flagging regime the paper's algorithm
/// is built for. 0.5e-18 F against the 20e-18 F ground caps keeps the
/// accumulated testing factor about half an order of magnitude below the
/// flag threshold at the default alpha.
inline Circuit chain_circuit(int stages, double coupling_f = 0.0) {
  Circuit c;
  const NodeId vp = c.add_external("vp");
  const NodeId vn = c.add_external("vn");
  c.set_source(vp, Waveform::dc(0.01));
  c.set_source(vn, Waveform::dc(-0.01));
  NodeId prev = Circuit::kGroundNode;
  for (int s = 0; s < stages; ++s) {
    const NodeId i = c.add_island();
    c.add_junction(vp, i, 1e6, 1e-18);
    c.add_junction(i, vn, 1e6, 1e-18);
    c.add_capacitor(i, Circuit::kGroundNode, 20e-18);
    if (coupling_f > 0.0 && s > 0) c.add_capacitor(prev, i, coupling_f);
    prev = i;
  }
  return c;
}

struct BenchArgs {
  bool full = false;        ///< paper-fidelity event counts / grids
  std::string out_dir = "bench_out";
  /// Worker threads for the parallel sweep / multi-seed paths (0 = all
  /// cores). Results are bitwise identical for every value; only wall time
  /// changes. Timing-sensitive benches (fig6) ignore this for the measured
  /// windows and parallelize only across independent runs.
  unsigned threads = 1;
  /// Overrides for a bench's built-in base seed / repeat count; 0 keeps the
  /// bench default (every bench documents its own, e.g. fig7 uses 9 seeds).
  std::uint64_t seed = 0;
  std::uint64_t repeats = 0;
  /// Non-empty enables per-unit crash-safe checkpointing: finished work
  /// units are recorded to this file and restored on rerun (obs/checkpoint).
  std::string checkpoint;

  /// Strict `--flag=` value parse: anything but a plain non-negative
  /// decimal integer is fatal (exit 2), matching the driver CLI.
  static std::uint64_t parse_u64_flag(const std::string& s,
                                      std::size_t prefix_len) {
    char* end = nullptr;
    const char* text = s.c_str() + prefix_len;
    const std::uint64_t v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' ||
        s.find('-', prefix_len) != std::string::npos) {
      std::fprintf(stderr, "%.*s not a non-negative integer: %s\n",
                   static_cast<int>(prefix_len), s.c_str(), text);
      std::exit(2);
    }
    return v;
  }

  static BenchArgs parse(int argc, char** argv) {
    // Benches run for minutes; make progress visible through pipes.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      if (s == "--full") {
        a.full = true;
      } else if (s.rfind("--out=", 0) == 0) {
        a.out_dir = s.substr(6);
      } else if (s.rfind("--threads=", 0) == 0) {
        a.threads = static_cast<unsigned>(parse_u64_flag(s, 10));
      } else if (s.rfind("--seed=", 0) == 0) {
        a.seed = parse_u64_flag(s, 7);
      } else if (s.rfind("--repeats=", 0) == 0) {
        a.repeats = parse_u64_flag(s, 10);
        if (a.repeats == 0) {
          std::fprintf(stderr, "--repeats= must be >= 1\n");
          std::exit(2);
        }
      } else if (s.rfind("--checkpoint=", 0) == 0) {
        a.checkpoint = s.substr(13);
      } else if (s == "--help" || s == "-h") {
        std::printf(
            "usage: %s [--full] [--out=DIR] [--threads=N] [--seed=N]\n"
            "          [--repeats=N] [--checkpoint=FILE]\n",
            argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
        std::exit(2);
      }
    }
    return a;
  }
};

/// One-line run-counter report every bench prints after a parallel region.
inline void report_counters(const char* what, const RunCounters& c) {
  std::printf(
      "# %s: %u thread(s), %llu unit(s), %llu events, %llu rate evals, "
      "%llu flags, %llu refreshes, %.3f s wall\n",
      what, c.threads, static_cast<unsigned long long>(c.units),
      static_cast<unsigned long long>(c.stats.events),
      static_cast<unsigned long long>(c.stats.all_rate_evaluations()),
      static_cast<unsigned long long>(c.stats.junctions_flagged),
      static_cast<unsigned long long>(c.stats.full_refreshes), c.wall_seconds);
}

/// Prints the table to stdout and writes it under out_dir/name.tsv.
inline void emit(const BenchArgs& args, const std::string& name,
                 const TableWriter& table) {
  std::filesystem::create_directories(args.out_dir);
  table.write(std::cout);
  table.write_file(args.out_dir + "/" + name + ".tsv");
  std::printf("# -> %s/%s.tsv\n\n", args.out_dir.c_str(), name.c_str());
}

}  // namespace semsim::bench
