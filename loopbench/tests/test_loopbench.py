#!/usr/bin/env python3
"""Tests of the loop benchmark itself.

Runs every workload at its smoke size (--tiny), untraced and traced, and
checks that the result line names exactly the metrics BENCHMARK.json
declares, each with its declared unit, that the detailed report carries
the host fingerprint and per-op accounting, and that the benchmark fails
cleanly where it must.

Run from the repository root:
    python3 -m unittest discover -s loopbench/tests -v
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(ROOT, ".bench_build", "loopbench-tests")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT, run=RUN, extra=("--tiny",)):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class LoopBenchTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        for workload in (w["name"] for w in cls.spec["workloads"]):
            for trace in (0, 1):
                done = run_bench(workload, trace)
                cls.results[(workload, trace)] = done

    def parsed(self, workload, trace):
        done = self.results[(workload, trace)]
        self.assertEqual(done.returncode, 0,
                         "%s trace=%d failed:\n%s" %
                         (workload, trace, done.stderr[-3000:]))
        lines = done.stdout.strip().splitlines()
        self.assertGreaterEqual(len(lines), 2)
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["loopbench_report"]
        return result, report

    def check_metrics(self, trace, declared):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                result, report = self.parsed(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(list(metrics), [m["name"] for m in declared])
                for m in declared:
                    got = metrics[m["name"]]
                    self.assertEqual(set(got), {"value", "unit"})
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertTrue(math.isfinite(got["value"]), m["name"])
                    # The report carries the same value with its sample
                    # count and within-run spread.
                    detail = report["metrics"][m["name"]]
                    self.assertEqual(detail["value"], got["value"])
                    self.assertIn("samples", detail)
                    self.assertIn("spread", detail)

    def test_end_to_end_metrics_print_with_units(self):
        self.check_metrics(0, self.spec["end_to_end"])
        for workload in (w["name"] for w in self.spec["workloads"]):
            result, _ = self.parsed(workload, 0)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_per_layer_metrics_print_with_units(self):
        self.check_metrics(1, self.spec["per_layer"])

    def test_report_has_host_and_op_accounting(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            _, report = self.parsed(workload, 0)
            host = report["host"]
            for key in ("nproc", "cpu", "compiler", "build_type"):
                self.assertIn(key, host)
            for op in ("query", "read", "feedback", "wait_fresh", "register",
                       "source_visible", "save", "open", "recreate_view"):
                counts = report["ops"][op]
                self.assertEqual(counts["attempted"],
                                 counts["succeeded"] + counts["failed"])
                self.assertGreaterEqual(counts["attempted"], 1, op)
            self.assertEqual(report["fail_ratio"], 0)
            for name, counts in report["checks"].items():
                self.assertEqual(counts["failed"], 0, name)

    def test_traced_counters_reconcile(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            _, report = self.parsed(workload, 1)
            for name in ("feedback classifications == views x moved rounds",
                         "structural skips + rebuilds == views x registrations",
                         "warm lookups == cold lookups",
                         "warm search == cold search",
                         "replay children account for the root within 5%",
                         "replay == QueryView"):
                self.assertIn(name, report["checks"])
                self.assertGreater(report["checks"][name]["passed"], 0)


class LoopBenchFailureTest(unittest.TestCase):
    def test_unknown_workload_fails(self):
        done = run_bench("no_such_workload", 0)
        self.assertNotEqual(done.returncode, 0)

    def test_fails_without_the_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark: the
        # build must fail fast and no result line may appear.
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        shutil.copy(SPEC, SCRATCH)
        shutil.copytree(BENCH_DIR, os.path.join(SCRATCH, "loopbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run_bench("serve_feedback", 0, cwd=SCRATCH,
                             run=os.path.join(SCRATCH, "loopbench", "run.py"),
                             extra=())
            self.assertNotEqual(done.returncode, 0)
            lines = done.stdout.strip().splitlines()
            if lines:
                self.assertNotIn('"correct"', lines[-1])
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
