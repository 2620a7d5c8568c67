#!/usr/bin/env python3
"""Builds and runs the SubShare benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report_sf02 --seed 1 --seconds 20 --trace 0

Workloads: report_sf02, mqo_batch, server_mixed, or all. The engine is built
from ../src together with the benchmark program, in Release mode, under
$CARGO_TARGET_DIR (default .bench_build) relative to the current directory.
Build output goes to standard error; the benchmark's output, whose last line is
the JSON result, goes to standard output. Exits nonzero when the build fails,
when a result differs from the naive planner or a self-check fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("report_sf02", "mqo_batch", "server_mixed", "all")
# A single-workload run must end within 180 s; leave room for the build
# check. `all` runs the three workloads back to back.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("timed out: " + " ".join(cmd), file=sys.stderr)
        return 1


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_logged(["cmake", "--build", build_dir, "--target",
                       "subshare_perfbench", "-j", jobs],
                      BUILD_TIMEOUT_S) != 0:
            return None
    return os.path.join(build_dir, "subshare_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.abspath(target)
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(root, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    proc = subprocess.Popen(cmd)
    try:
        runs = 3 if args.workload == "all" else 1
        return proc.wait(timeout=runs * RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
