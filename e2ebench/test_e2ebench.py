#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark, at its small --smoke scale.

    python3 e2ebench/test_e2ebench.py

Run from the repository root.  Checks, for every workload at two seeds,
that the untraced run prints exactly the end-to-end metrics and the traced
run exactly the per-layer metrics of BENCHMARK.json, each with its unit,
and that no output check failed (error_rate = 0).  Also checks that the
benchmark refuses to run, without printing a result, when the library
sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SEEDS = (11, 12)


def load_benchmark():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, trace, section):
        bench = load_benchmark()
        expected = {m["name"]: m["unit"] for m in bench[section]}
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    proc = run(workload, seed, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("error_rate 0 ", proc.stdout)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_prints_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_refuses_without_library_sources(self):
        scratch = os.path.join(REPO_ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("grid-fig8", SEEDS[0], 0, cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
