#!/usr/bin/env python3
"""End-to-end benchmark of fecsched: one workload per invocation.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root.  The first run configures and builds the
library and the benchmark binary into .bench_build/e2ebench (Release).
With --trace 0 the workload's process times its repetitions and fresh
set-up processes and prints the end-to-end metrics; with --trace 1 it runs
the traced replay and prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See
README.md for the workloads and what each metric measures.
"""

import argparse
import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the binary; serialised by a lock file."""
    if not (os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO_ROOT, "src"))):
        fail("library sources not found next to " + BENCH_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                      "--parallel", jobs])
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small scale for the benchmark's own tests")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--specs", os.path.join(BENCH_DIR, "specs")]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    else:
        cmd += ["--ledger", os.path.join(BUILD_DIR, "ledger.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
