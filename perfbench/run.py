#!/usr/bin/env python3
"""zolcsim benchmark: build, run one workload, check it, print the result.

    python3 perfbench/run.py --workload pipeline_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds perfbench/ (the zolcsim
library, the `zolcsim` CLI and the `zolcbench` program) in Release into
.bench_build/, runs the workload's fixed measured work -- sized so that it
takes about --seconds on the reference host -- and checks the outputs:
kernel verification, cross-pass and cross-tier cycle equality, and at the
default seed the exact per-cell cycles stored in perfbench/expect.json.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. The exit status is 0
when every output was correct, 1 when a check failed and 2 when the
benchmark could not run. README.md describes workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("pipeline_paper", "iss_deepnest", "serve_mixed")
DEFAULT_SEED = 1
# Every file the benchmark needs. The root .gitignore ignores *.json, so a
# JSON file that was never force-added is missing from a clean checkout;
# listing them here turns that into a loud failure.
BENCH_FILES = (
    "BENCHMARK.json",
    "perfbench/CMakeLists.txt",
    "perfbench/README.md",
    "perfbench/expect.json",
    "perfbench/run.py",
    "perfbench/zolcbench.cpp",
)
# Passes per requested second: one pass takes about 0.32 s (pipeline_paper),
# 0.6 s (iss_deepnest) and 12-25 ms (serve_mixed, growing with uptime) on the
# reference host, a 4-vCPU Intel Xeon virtual machine, when it is quiet. The work is fixed per --seconds so
# that every metric, peak memory included, describes the same work on any
# commit; a slower commit takes longer, up to MAX_SECONDS_FACTOR x --seconds.
PASSES_PER_SECOND = {"pipeline_paper": 3.0, "iss_deepnest": 1.6, "serve_mixed": 55.0}
MAX_SECONDS_FACTOR = 4.0
# Daemon workers plus client connections of serve_mixed; with sweep
# threads pinned to 1 this is the benchmark's peak thread demand.
SERVE_THREADS = 2 + 2
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (exit status 2, no result line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_files():
    missing = [f for f in BENCH_FILES if not os.path.isfile(f)]
    if missing:
        raise BenchError("benchmark files missing from this checkout: " + ", ".join(missing)
                         + " (JSON files must be added with `git add -f`)")
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
        return
    tracked = subprocess.run(["git", "ls-files", "--", *BENCH_FILES], capture_output=True,
                             text=True, timeout=10).stdout.split()
    untracked = sorted(set(BENCH_FILES) - set(tracked))
    if untracked:
        raise BenchError("benchmark files not in `git ls-files`: " + ", ".join(untracked)
                         + " (add them with `git add -f`)")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("no zolcsim source tree here; run from the repository root")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise BenchError(f"{BUILD_DIR} is a '{build_type}' build; only Release is measured")
    jobs = str(max(1, min(4, cpu_count())))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_type


def load_expectations():
    with open(os.path.join(BENCH_DIR, "expect.json")) as f:
        return json.load(f)


def run_zolcbench(workload, seed, seconds, trace, deadline):
    passes = max(1, math.ceil(seconds * PASSES_PER_SECOND[workload]))
    cmd = [os.path.join(BUILD_DIR, "zolcbench"), workload, f"--seed={seed}",
           f"--passes={passes}", f"--max-seconds={MAX_SECONDS_FACTOR * seconds}",
           f"--trace={trace}", f"--out-dir={OUT_DIR}"]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to run " + workload)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"zolcbench {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_expectations(workload, seed, report, expect, problems):
    """At the default seed, every stored pass-0 cycle count must match."""
    if seed != expect["default_seed"]:
        return
    want = expect["workloads"].get(workload)
    if want is None:
        problems.append(f"{workload}: no stored expectation")
        return
    got_cycles = int(report["e2e"]["sim_cycles"])
    if got_cycles != want["sim_cycles"]:
        problems.append(f"{workload}: sim_cycles {got_cycles} != expected {want['sim_cycles']}")
    for cell, cycles in want["cells"].items():
        if report["cells"].get(cell) != cycles:
            problems.append(f"{workload}: cell {cell} cycles {report['cells'].get(cell)} "
                            f"!= expected {cycles}")


def run_workload(workload, args, spec, expect, provenance, deadline):
    report = run_zolcbench(workload, args.seed, args.seconds, args.trace, deadline)
    provenance = dict(provenance, compiler=report["toolchain"])
    problems = list(report["failures"])
    check_expectations(workload, args.seed, report, expect, problems)
    failed = report["failed"] + (len(problems) - len(report["failures"]))
    correct = failed == 0 and not problems
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        unknown = set(report["layers"]) - {m["name"] for m in listed}
        if unknown:
            raise BenchError("zolcbench reported unlisted layer metrics: " + ", ".join(sorted(unknown)))
        # A layer the workload does not exercise reads 0.
        values = {m["name"]: report["layers"].get(m["name"], 0.0) for m in listed}
    else:
        values = report["e2e"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": report["passes"], "samples": report["e2e"]["samples"],
              "provenance": provenance, "correct": correct, "problems": problems[:20],
              "metrics": metrics, "cells": report["cells"]}
    with open(os.path.join(OUT_DIR, f"result-{workload}-{args.seed}-{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"{workload}: {report['passes']} passes, {report['attempted']} attempted, "
          f"{failed} failed, {int(report['e2e']['samples'])} request/cell latency samples")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    return correct, report["attempted"], failed, metrics, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expect", action="store_true",
                    help="store this run's pass-0 cycles as the expectation "
                         "(default seed only; for intentional model changes)")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        check_files()
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        expect = load_expectations()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        if "serve_mixed" in workloads and cpu_count() < SERVE_THREADS:
            raise BenchError(f"serve_mixed needs {SERVE_THREADS} CPUs (2 daemon workers + "
                             f"2 client connections); this host has {cpu_count()}")
        build_type = build()
        provenance = {"nproc": cpu_count(), "cpu": cpu_model(), "build_type": build_type,
                      "git_sha": git_sha(), "python": platform.python_version()}
        if args.workload == "all":
            deadline = time.monotonic() + RUN_TIMEOUT_S * len(workloads)
        results = []
        for w in workloads:
            results.append(run_workload(w, args, spec, expect, provenance, deadline))
        log("provenance: " + json.dumps(dict(provenance, compiler=results[0][4]["toolchain"]),
                                        sort_keys=True))
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 2

    if args.write_expect:
        if args.seed != DEFAULT_SEED:
            log("--write-expect needs the default seed")
            return 2
        for w, (_, _, _, _, report) in zip(workloads, results):
            expect["workloads"][w] = {"sim_cycles": int(report["e2e"]["sim_cycles"]),
                                      "cells": report["cells"]}
        with open(os.path.join(BENCH_DIR, "expect.json"), "w") as f:
            json.dump(expect, f, indent=1, sort_keys=True)
            f.write("\n")

    correct = all(r[0] for r in results)
    attempted = sum(r[1] for r in results)
    failed = sum(r[2] for r in results)
    if len(results) == 1:
        metrics = results[0][3]
    else:
        metrics = {f"{w}.{name}": m for w, r in zip(workloads, results) for name, m in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
