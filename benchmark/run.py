#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Builds benchmark/build/nsfbench (CMake, RelWithDebInfo) when it is missing
or stale, runs the workload in its own process, and prints nsfbench's
output, one provenance JSON line and, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes
benchmark/build/traces/<workload>.json). Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import trace_summary  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "build"
BINARY = BUILD_DIR / "nsfbench"
# Every run must end within 180 s; the build has its own, longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The engine reads these; a run must not depend on the caller's environment.
SCRUBBED_ENV = ("NSF_TRACE", "NSF_CACHE_DIR", "NSF_CACHE_MAX_BYTES")


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources in {ROOT}; nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "nsfbench",
                      "--parallel", str(min(os.cpu_count() or 1, 4))])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"build timed out: {' '.join(cmd)}") from e
            if done.returncode != 0:
                raise BenchError(f"build failed ({done.returncode}): {' '.join(cmd)}")


def git_provenance():
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return {"git_rev": "none", "git_dirty": None}
    return {"git_rev": rev, "git_dirty": bool(git("status", "--porcelain"))}


def run_nsfbench(args, trace_path):
    work = BUILD_DIR / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(work)]
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--trace-out", str(trace_path)]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # 0: every check held; 1: a check failed; anything else: no measurement.
    if done.returncode not in (0, 1):
        raise BenchError(f"nsfbench exited with {done.returncode}")
    return done.stdout, done.returncode == 0


def parse(output):
    metrics, info = {}, {}
    for line in output.splitlines():
        if line.startswith("@"):
            key, _, value = line[1:].partition(" ")
            info[key] = value
        elif line.strip():
            name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return metrics, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload}; one of {workloads}")
        build()
        trace_path = BUILD_DIR / "traces" / f"{args.workload}.json"
        output, correct = run_nsfbench(args, trace_path)
        metrics, info = parse(output)
        if args.trace:
            ops = int(metrics["trace.ops"][0])
            for name, value in trace_summary.summarize(trace_path, ops).items():
                metrics[name] = (value, "ms")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        result = {}
        for m in wanted:
            name = m["name"]
            if name in metrics:
                value = metrics[name][0]
                if not math.isfinite(value):
                    raise BenchError(f"nsfbench reported {name} = {value}")
            elif name.startswith("span."):
                value = 0.0  # the span did not occur in this workload
            else:
                raise BenchError(f"nsfbench reported no {name}")
            result[name] = {"value": value, "unit": m["unit"]}
        attempted = int(metrics["ops.attempted"][0])
        failed = int(metrics["ops.failed"][0])
        if attempted < 1:
            raise BenchError("no operation was attempted")
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    sys.stdout.write(output)
    print(json.dumps({"provenance": {**info, **git_provenance()}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
