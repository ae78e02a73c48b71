// semsim — command-line front end, the shape the paper describes:
// "Circuit information is passed to SEMSIM via an input file containing all
// the necessary information ... the results are stored in a file."
//
//   semsim <input-file> [run flags] [--threads N] [--out FILE.tsv]
//          [--json FILE.json] [--master-check] [--checkpoint FILE] ...
//
// Runs the Monte-Carlo simulation an input file requests (see
// src/netlist/parser.h for the grammar) and prints/writes the results. The
// CLI is a thin wrapper over the RunRequest -> run() -> RunResult facade
// (analysis/api.h); --json writes the versioned RunResult::to_json()
// document. --master-check additionally solves the steady-state master
// equation and prints its currents next to the Monte-Carlo values (small
// circuits only). Every value flag accepts both `--flag VALUE` and
// `--flag=VALUE`.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/api.h"
#include "flags.h"
#include "guard/exit_codes.h"
#include "io/table_writer.h"
#include "master/master_equation.h"

using namespace semsim;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s <input-file> [run flags] [--threads N] [--out FILE.tsv]\n"
      "          [--json FILE.json] [--canonical-json FILE] [--master-check]\n"
      "          [--checkpoint FILE] [--resume FILE] [--salvage-checkpoint]\n"
      "          [--audit-interval N] [--no-audit] [--watchdog-seconds X]\n"
      "  --json FILE.json     write the versioned machine-readable result\n"
      "                       document (schema %s)\n"
      "  --canonical-json FILE  like --json, but omit the execution-\n"
      "                       environment fields (threads, wall time): the\n"
      "                       document is then a pure function of the run\n"
      "                       fingerprint — byte-identical at any thread\n"
      "                       count, and byte-identical to what the service\n"
      "                       daemon (semsim_serve) stores and serves\n"
      "  --threads N          worker threads for sweeps / repeated runs\n"
      "                       (0 = all cores); results are identical for\n"
      "                       every N\n"
      "  --checkpoint FILE    record completed work units to FILE (crash\n"
      "                       safe; an existing matching file is resumed)\n"
      "  --resume FILE        like --checkpoint, but FILE must exist\n"
      "  --salvage-checkpoint keep the valid record prefix of a damaged\n"
      "                       checkpoint file instead of rejecting it\n"
      "  --audit-interval N   events between runtime invariant audits\n"
      "                       (default auto; see --no-audit)\n"
      "  --no-audit           disable the runtime invariant auditor\n"
      "  --watchdog-seconds X abort a work unit after X wall-clock seconds\n"
      "%s"
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse/circuit, 4 numeric or\n"
      "invariant violation, 5 I/O or checkpoint mismatch, 6 watchdog\n"
      "timeout, 8 completed degraded (some work units failed)\n",
      argv0, RunResult::kJsonSchema, kRunFlagsUsage);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string out_path;
  std::string json_path;
  std::string canonical_json_path;
  RunRequest req;
  std::uint32_t repeats = 0;  // 0 = the input file's count
  bool master_check = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (parse_run_flag(a, argc, argv, i, &req, &repeats)) {
      // handled
    } else if (flag_value(a, "--threads", argc, argv, i, &v)) {
      req.threads = static_cast<unsigned>(parse_u64("--threads", v));
    } else if (flag_value(a, "--checkpoint", argc, argv, i, &v)) {
      req.checkpoint_path = v;
    } else if (flag_value(a, "--resume", argc, argv, i, &v)) {
      req.resume_path = v;
    } else if (a == "--salvage-checkpoint") {
      req.salvage_checkpoint = true;
    } else if (flag_value(a, "--audit-interval", argc, argv, i, &v)) {
      req.audit.interval = parse_u64("--audit-interval", v);
    } else if (a == "--no-audit") {
      req.audit.enabled = false;
    } else if (flag_value(a, "--watchdog-seconds", argc, argv, i, &v)) {
      req.audit.watchdog_seconds = parse_positive_f64("--watchdog-seconds", v);
    } else if (flag_value(a, "--out", argc, argv, i, &v)) {
      out_path = v;
    } else if (flag_value(a, "--canonical-json", argc, argv, i, &v)) {
      canonical_json_path = v;
    } else if (flag_value(a, "--json", argc, argv, i, &v)) {
      json_path = v;
    } else if (a == "--master-check") {
      master_check = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] != '-' && input_path.empty()) {
      input_path = a;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      usage(argv[0]);
      return kExitUsage;
    }
  }
  if (input_path.empty()) {
    usage(argv[0]);
    return kExitUsage;
  }

  try {
    req.input = parse_simulation_file(input_path);
    if (repeats > 0) req.input.repeats = repeats;
    const SimulationInput& input = req.input;
    std::printf("# %s: %zu nodes, %zu junctions, T = %g K, %s solver%s\n",
                input_path.c_str(), input.circuit.node_count(),
                input.circuit.junction_count(), input.temperature,
                req.adaptive ? "adaptive" : "non-adaptive",
                input.cotunneling ? ", cotunneling" : "");

    const RunResult res = run(req);
    const DriverResult& r = res.driver;
    std::printf("# fingerprint: %s\n", fingerprint_hex(res.fingerprint).c_str());

    if (!r.sweep.empty()) {
      TableWriter table({"v_swept_V", "current_A", "stderr_A", "rel_err",
                         "tau_int", "events", "status"});
      table.add_comment("semsim sweep of node " +
                        std::to_string(input.sweep->source));
      for (const IvPoint& p : r.sweep) {
        table.add_row({p.bias, p.current, p.stderr_mean, p.rel_error,
                       p.tau_int, static_cast<double>(p.events),
                       point_status_label(p)});
      }
      if (!out_path.empty()) {
        table.write_file(out_path);
        std::printf("# wrote %zu sweep points to %s\n", r.sweep.size(),
                    out_path.c_str());
      } else {
        table.write(std::cout);
      }
    } else if (r.current) {
      std::printf("I = %.6e A +- %.1e  (%llu events, %.3e s simulated)\n",
                  r.current->mean, r.current->stderr_mean,
                  static_cast<unsigned long long>(r.events),
                  r.simulated_time);
      if (r.converged) {
        std::printf(
            "# convergence: rel_err = %.3e (target %.3e, %s), tau_int = "
            "%.2f, %llu samples\n",
            r.converged->rel_error, req.stop.target_rel_error,
            r.converged->converged ? "reached" : "event cap hit",
            r.converged->tau_int,
            static_cast<unsigned long long>(r.converged->samples.count()));
      }
      if (!out_path.empty()) {
        TableWriter table({"current_A", "stderr_A", "events", "sim_time_s"});
        table.add_row({r.current->mean, r.current->stderr_mean,
                       static_cast<double>(r.events), r.simulated_time});
        table.write_file(out_path);
      }
    }

    if (r.ensemble) {
      const EnsembleResult& ens = *r.ensemble;
      const EnsembleBandStats& band = ens.observable_stats;
      std::printf("# ensemble: %u replicas (seed %llu), %u ok, yield %.3f\n",
                  ens.replicas, static_cast<unsigned long long>(ens.seed),
                  band.n_ok, band.yield);
      std::printf(
          "# band: mean %.6e A, spread %.3e A, min %.6e A, max %.6e A\n",
          band.mean, band.spread, band.min, band.max);
      TableWriter table({"replica", "observable_A", "stderr_A", "events",
                         "sim_time_s", "attempts", "status"});
      table.add_comment("semsim ensemble replica rows");
      for (const ReplicaRow& row : ens.rows) {
        table.add_row({static_cast<double>(row.replica), row.observable,
                       row.current.stderr_mean,
                       static_cast<double>(row.events), row.sim_time,
                       static_cast<double>(row.attempts),
                       replica_status_label(row)});
      }
      table.write(std::cout);
    }
    std::printf("# work: %llu rate evaluations over %llu events\n",
                static_cast<unsigned long long>(r.counters.stats.rate_evaluations),
                static_cast<unsigned long long>(r.counters.stats.events));
    std::printf(
        "# run: %u thread(s), %llu unit(s), %llu events, %llu rate evals, "
        "%llu flags, %llu refreshes, %.3f s wall\n",
        r.counters.threads, static_cast<unsigned long long>(r.counters.units),
        static_cast<unsigned long long>(r.counters.stats.events),
        static_cast<unsigned long long>(r.counters.stats.all_rate_evaluations()),
        static_cast<unsigned long long>(r.counters.stats.junctions_flagged),
        static_cast<unsigned long long>(r.counters.stats.full_refreshes),
        r.counters.wall_seconds);

    if (!json_path.empty()) {
      std::ofstream f(json_path, std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "semsim: cannot write %s\n", json_path.c_str());
        return 1;
      }
      f << res.to_json() << '\n';
      std::printf("# wrote %s result to %s\n", RunResult::kJsonSchema,
                  json_path.c_str());
    }
    if (!canonical_json_path.empty()) {
      std::ofstream f(canonical_json_path, std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "semsim: cannot write %s\n",
                     canonical_json_path.c_str());
        return 1;
      }
      f << res.to_json(/*canonical=*/true) << '\n';
      std::printf("# wrote canonical %s result to %s\n", RunResult::kJsonSchema,
                  canonical_json_path.c_str());
    }

    if (master_check) {
      MasterEquationSolver me(input.circuit, req.engine_options());
      std::printf("# master-equation check (%zu states):\n", me.state_count());
      for (const std::size_t j : input.record_junctions) {
        std::printf("#   junction %zu: I_me = %.6e A\n", j + 1,
                    me.junction_current(j));
      }
    }

    if (r.degraded()) {
      // Non-strict runs finish even when work units fail; signal the
      // degradation with a distinct exit code and name every failed unit.
      for (const UnitFailure& f : r.failures) {
        std::fprintf(stderr, "semsim: degraded: %s (code %s, %u attempts)\n",
                     f.message.c_str(), error_code_name(f.code), f.attempts);
      }
      return kExitDegraded;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "semsim: %s\n", e.what());
    return exit_code_for(e);
  }
  return kExitOk;
}
