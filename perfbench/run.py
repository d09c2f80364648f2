#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload warehouse_read --seed 1 \
        --seconds 25 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench; database files of
a run live in .bench_build/run-<pid> and are removed when it ends. The last
line of standard output is the program's JSON result; any failure exits
non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers included) and waits for it before failing."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: timed out: %s" % " ".join(cmd))
    if proc.returncode != 0:
        sys.exit("perfbench: exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return out


def build():
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    # Build output goes to stderr so the result stays the last stdout line.
    run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"], 120, sys.stderr)
    run(["cmake", "--build", BUILD_DIR, "-j", jobs], 600, sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "query_service.h")):
        sys.exit("perfbench: the aqv sources (src/) are not next to perfbench/")

    program = build()
    run_dir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    try:
        out = run([program, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--dir", run_dir],
                  150, subprocess.PIPE)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        sys.exit("perfbench: the program printed no result")
    json.loads(lines[-1])  # refuse to pass on a malformed result
    print(lines[-1])


if __name__ == "__main__":
    main()
