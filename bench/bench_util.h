// Shared plumbing for the figure-reproduction benches: flag parsing (the
// value flags through tools/flags.h, the tools' parser) and dual output
// (stdout + bench_out/*.tsv).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "../tools/flags.h"
#include "core/options.h"
#include "io/table_writer.h"

namespace semsim::bench {

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

  /// Every value flag takes `--flag=V` or `--flag V`; a malformed value
  /// or an unknown flag exits 2.
  static BenchArgs parse(int argc, char** argv) {
    // Benches run for minutes; make progress visible through pipes.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    BenchArgs a;
    std::string v;
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      if (s == "--full") {
        a.full = true;
      } else if (flag_value(s, "--out", argc, argv, i, &v)) {
        a.out_dir = v;
      } else if (flag_value(s, "--threads", argc, argv, i, &v)) {
        a.threads = static_cast<unsigned>(parse_u64("--threads", v));
      } else if (flag_value(s, "--seed", argc, argv, i, &v)) {
        a.seed = parse_u64("--seed", v);
      } else if (flag_value(s, "--repeats", argc, argv, i, &v)) {
        a.repeats = parse_count("--repeats", v);
      } else if (flag_value(s, "--checkpoint", argc, argv, i, &v)) {
        a.checkpoint = v;
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
