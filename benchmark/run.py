#!/usr/bin/env python3
"""End-to-end benchmark runner for SEMSIM.

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds 15]
                             [--trace 0|1]

Builds the Release libraries and the semsim_serve daemon from this checkout
(build-bench/semsim, or the tree named by SEMSIM_BUILD_DIR), builds the
harness (build-bench/harness/semsim_bench), and runs each workload in its
own process. The harness prints one line per metric and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}; this script adds the
machine metadata and merges every run into bench_out/benchmark/results.json.
Without --workload all four workloads run one after another. Exits non-zero
when the build fails, a check fails or a workload overruns its time limit.
"""
import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["device_iv", "ensemble_chain", "logic_fabric", "served_mix"]
# BENCHMARK.json's run_seconds. The harness has no time knob: each workload
# runs a fixed number of operations, chosen so a run measures about this long
# on the reference machine, and --seconds only confirms the budget.
RUN_SECONDS = 15
HARNESS_TIMEOUT_S = 160
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out" / "benchmark"


def fail(msg, code):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        f.flush()
        rc = subprocess.call(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({rc}): {' '.join(str(c) for c in cmd)}", 3)


def build():
    """Configures and builds both trees; returns (semsim tree, harness)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SEMSIM sources under {ROOT}", 2)
    semsim = Path(os.environ.get("SEMSIM_BUILD_DIR", ROOT / "build-bench" / "semsim"))
    harness = ROOT / "build-bench" / "harness"
    jobs = str(min(4, os.cpu_count() or 1))
    OUT.mkdir(parents=True, exist_ok=True)
    log = OUT / "build.log"
    if not (semsim / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT, "-B", semsim,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    # The harness links every libsemsim_*.a in the tree, and CMake never
    # deletes the archive of a library that was renamed, merged or split.
    # Dropping them all leaves only the archives this build produces; the
    # object files stay, so the cost is re-archiving.
    for archive in (semsim / "src").rglob("libsemsim_*.a"):
        archive.unlink()
    run_logged(["cmake", "--build", semsim, "-j", jobs, "--target",
                "semsim_serve_bin", "semsim_logic", "semsim_master"], log)
    if not (harness / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT / "benchmark", "-B", harness,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DSEMSIM_BUILD_DIR={semsim}"], log)
    run_logged(["cmake", "--build", harness, "-j", jobs], log)
    return semsim, harness / "semsim_bench"


def cache_value(cache, key):
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", cache, re.M)
    return m.group(1) if m else ""


def machine(semsim, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (semsim / "CMakeCache.txt").read_text()
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cache_value(cache, "CMAKE_CXX_FLAGS"),
        cache_value(cache, f"CMAKE_CXX_FLAGS_{build_type.upper()}")]))
    version = ""
    for f in semsim.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        m = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', f.read_text())
        if m:
            version = m.group(1)
    commit = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "compiler": f"{cache_value(cache, 'CMAKE_CXX_COMPILER')} {version}".strip(),
        "flags": flags,
        "build_type": build_type,
        "commit": commit,
        "seed": seed,
    }


def record_path(workload, trace):
    return OUT / f"{workload}{'.trace' if trace == '1' else ''}.json"


def run_workload(harness, semsim, args, workload):
    """Runs one workload in its own process group.

    Returns (exit code, stdout lines, parsed result line or None).
    """
    record_path(workload, args.trace).unlink(missing_ok=True)
    cmd = [str(harness), "--workload", workload, "--seed", str(args.seed),
           "--trace", args.trace,
           "--serve-bin", str(semsim / "tools" / "semsim_serve"),
           "--out", str(OUT.relative_to(ROOT))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the harness and its daemon
        proc.communicate()
        shutil.rmtree(OUT / "served_mix", ignore_errors=True)
        fail(f"{workload} overran {HARNESS_TIMEOUT_S} s", 4)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def merge_results(meta, workload, trace):
    record = record_path(workload, trace)
    results_path = OUT / "results.json"
    results = {"schema": "semsim.benchmark_results/v1", "runs": {}}
    if results_path.is_file():
        try:
            results = json.loads(results_path.read_text())
        except json.JSONDecodeError:
            pass
    results["machine"] = meta
    if record.is_file():
        key = workload + ("/trace" if trace == "1" else "")
        results["runs"][key] = json.loads(record.read_text())
    results_path.write_text(json.dumps(results, indent=1) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help=f"must be {RUN_SECONDS}, the budget the fixed "
                        "workload sizes were chosen for")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    args = p.parse_args()
    if args.seconds != RUN_SECONDS:
        fail(f"--seconds must be {RUN_SECONDS}: every workload does a fixed "
             "amount of work, sized for that budget", 2)

    semsim, harness = build()
    meta = machine(semsim, args.seed)
    workloads = [args.workload] if args.workload else WORKLOADS
    rc_all = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        rc, lines, result = run_workload(harness, semsim, args, w)
        merge_results(meta, w, args.trace)
        if args.workload:
            print("\n".join(lines), flush=True)
        else:
            print("\n".join(lines[:-1]), flush=True)
        if result is None:
            fail(f"{w} printed no result (exit {rc})", rc or 5)
        rc_all = rc_all or rc
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    if not args.workload:
        print(json.dumps(combined), flush=True)
    sys.exit(rc_all)


if __name__ == "__main__":
    main()
