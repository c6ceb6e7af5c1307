"""Fast self-test of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload with a tiny iteration cap, checks that each metric
BENCHMARK.json names is emitted with its unit, checks the self-time
arithmetic on synthetic spans, and checks that the benchmark refuses to run
without the package.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_sfgp()

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import numpy as np  # noqa: E402
from sfgp import registration  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
TINY_ITERS = {"fish_grid": 2, "sphere_dense": 1}


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


class SelfTime(unittest.TestCase):
    SPANS = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: [1, 6] is covered once
        ["c", 8.0, 9.0, 0],
        ["a1", 1.5, 2.5, 1],
        ["late", 9.5, 12.0, 0],  # only [9.5, 10] lies inside root
    ]

    def test_duration_minus_covered_children(self):
        got = bench_trace.self_times(self.SPANS)
        self.assertEqual(got, [10.0 - 5.0 - 1.0 - 0.5, 2.0, 3.0, 1.0, 1.0, 2.5])

    def test_aggregate_pools_records(self):
        record = {"spans": self.SPANS, "counters": {"x": 2}, "samples": {"s": [1.0]}}
        agg = bench_trace.Aggregate([record, record])
        self.assertEqual(agg.pooled(("a", "b"), "self"), [2.0, 2.0, 3.0, 3.0])
        self.assertEqual(agg.pooled(("root",), "duration"), [10.0, 10.0])
        self.assertEqual(agg.counters["x"], 4)
        self.assertEqual(agg.samples["s"], [1.0, 1.0])


class Tracing(unittest.TestCase):
    def test_nested_spans_and_clean_uninstall(self):
        original = registration.register
        case = bench_workloads.fish_cases(3, max_iters=2)[0]
        tracer = bench_trace.Tracer().install()
        try:
            self.assertIsNot(registration.register, original)
            bench_workloads.run_case(case, [])
            spans = tracer.snapshot()["spans"]
        finally:
            tracer.uninstall()
        self.assertIs(registration.register, original)
        names = [s[0] for s in spans]
        chol = spans[names.index("gpr.cho_factor")]
        posterior = spans[chol[3]]
        self.assertEqual(posterior[0], "gpr.gpr_posterior")
        self.assertEqual(spans[posterior[3]][0], "registration.register")
        for name, start, end, parent in spans:
            self.assertLessEqual(start, end)
            if parent >= 0:
                self.assertLessEqual(spans[parent][1], start)
                self.assertLessEqual(end, spans[parent][2])


class CrossCheck(unittest.TestCase):
    def test_a_changed_row_is_reported(self):
        outcomes, _ = bench_workloads.run_pass(bench_workloads.fish_cases(4, max_iters=1), [])
        altered = [bench_workloads.Outcome(o.key, o.seconds, o.iters, o.converged, o.failed,
                                           dict(o.row), o.points) for o in outcomes]
        altered[0].row["error_all"] = np.nextafter(altered[0].row["error_all"], 1.0)
        failures = []
        bench_workloads.compare_outcomes(outcomes, altered, failures, "test")
        self.assertEqual(len(failures), 1)


class BestOf(unittest.TestCase):
    def test_fastest_repeat_per_registration_in_pass_order(self):
        def outcome(key, seconds):
            return bench_workloads.Outcome(key, seconds, 10, False, False, {})

        first = [outcome("a", 2.0), outcome("b", 1.0)]
        second = [outcome("b", 0.5), outcome("a", 3.0)]
        best = bench_workloads.best_of([first, second])
        self.assertEqual([(o.key, o.seconds) for o in best], [("a", 2.0), ("b", 0.5)])


class Workloads(unittest.TestCase):
    def check_report(self, workload, trace):
        report = bench_workloads.WORKLOADS[workload](
            7, 0, trace, max_iters=TINY_ITERS[workload])
        self.assertTrue(report.correct, report.failures)
        self.assertGreaterEqual(report.attempted, 1)
        self.assertEqual(report.failed, 0)
        want = declared("per_layer" if trace else "end_to_end")
        self.assertEqual({k: u for k, (_, u) in report.metrics.items()}, want)
        line = json.loads(run.result_line(report))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})

    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertEqual(set(WORKLOAD_NAMES), set(bench_workloads.WORKLOADS))
        for workload in WORKLOAD_NAMES:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    self.check_report(workload, trace)


class WithoutPackage(unittest.TestCase):
    def test_refuses_to_run(self):
        bench_workloads.WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench_workloads.WORKDIR) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            for path in BENCHMARK["paths"]:
                shutil.copytree(run.ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                BENCHMARK["command"] + ["--workload", WORKLOAD_NAMES[0], "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
