#!/usr/bin/env python3
"""Offline unit tests for the benchmark's statistics and compare.py.

    python3 bench/e2e/test_compare.py
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import metrics  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_with_ten_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50)
        self.assertEqual(metrics.tail_percentile(40), 75)
        self.assertEqual(metrics.tail_percentile(100), 90)
        self.assertEqual(metrics.tail_percentile(199), 90)
        self.assertEqual(metrics.tail_percentile(200), 95)
        self.assertEqual(metrics.tail_percentile(1000), 99)
        self.assertEqual(metrics.tail_percentile(6000), 99.5)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(metrics.percentile(v, 99), 99)
        self.assertEqual(metrics.percentile(v, 50), 50)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertIsNone(metrics.percentile([], 50))


class GeomeanOfMedians(unittest.TestCase):
    def test_per_class_medians(self):
        got = metrics.geomean_of_medians({"a": [3, 1, 2], "b": [4, 100, 4]})
        self.assertAlmostEqual(got, math.sqrt(2 * 4))

    def test_even_count_and_empty_class(self):
        got = metrics.geomean_of_medians({"a": [1, 3], "b": []})
        self.assertAlmostEqual(got, 2.0)

    def test_shell_fs_class(self):
        raw = {"workload": "shell", "setup_s": [1], "cold_ms": [1],
               "peak_rss_mb": 1, "steps": [], "layers": {}, "info": {},
               "ops": {"spawn": [10], "pipe": [20], "ls": [2, 2, 9],
                       "els": [8], "sha1sum": [4], "ecat": [16]}}
        _, classes, detail, _ = metrics.reduce_run(raw)
        self.assertAlmostEqual(detail["shell_fs_ms"], (2 * 8 * 4 * 16) ** .25)
        self.assertEqual(classes["shell_ls_ms"], 2)
        self.assertEqual(classes["shell_pipe_ms"], 20)


class SloRps(unittest.TestCase):
    LIMIT = 20.0

    def test_interpolates_in_log_p99(self):
        steps = [(1000, 5.0, True), (2000, 10.0, True), (3000, 40.0, False)]
        want = 2000 + 1000 * math.log(20 / 10) / math.log(40 / 10)
        self.assertAlmostEqual(metrics.slo_rps(steps, self.LIMIT), want)

    def test_unclean_step_counts_as_infinite(self):
        steps = [(1000, 5.0, True), (2000, 10.0, True), (3000, None, False)]
        self.assertEqual(metrics.slo_rps(steps, self.LIMIT), 2000)

    def test_no_step_passes(self):
        self.assertAlmostEqual(
            metrics.slo_rps([(1000, 40.0, False)], self.LIMIT), 500)
        self.assertEqual(
            metrics.slo_rps([(1000, None, False)], self.LIMIT), 0.0)

    def test_every_step_passes(self):
        steps = [(1000, 5.0, True), (2000, 10.0, True)]
        want = 1000 + 1000 * math.log(20 / 5) / math.log(10 / 5)
        self.assertAlmostEqual(metrics.slo_rps(steps, self.LIMIT), want)
        # Extrapolation stops at twice the last rate.
        steps = [(1000, 1.0, True), (2000, 1.1, True)]
        self.assertEqual(metrics.slo_rps(steps, self.LIMIT), 4000)
        # No rise in p99: the last rate is all that is known.
        steps = [(1000, 5.0, True), (2000, 4.0, True)]
        self.assertEqual(metrics.slo_rps(steps, self.LIMIT), 2000)
        self.assertEqual(
            metrics.slo_rps([(1000, 5.0, True)], self.LIMIT), 1000)

    def test_reads_the_binarys_verdict_and_limit(self):
        def step(rps, p99, passed, drained=True):
            return {"rps": rps, "p99_ms": p99, "pass": passed,
                    "drained": drained, "failed": 0, "late_p99_ms": 0.1,
                    "lat_ms": [p99]}
        raw = {"workload": "http", "setup_s": [1], "cold_ms": [1],
               "peak_rss_mb": 1, "layers": {},
               "info": {"limit_ms": 8.0, "ops_per_s": 3000},
               "ops": {"api": [1.0], "static": [2.0]},
               "steps": [step(1000, 2.0, True), step(2000, 4.0, True),
                         step(3000, 30.0, False, drained=False)]}
        _, classes, detail, _ = metrics.reduce_run(raw)
        self.assertEqual(classes, {"http_api_ms": 1.0})
        # Past the 8 ms limit the last step did not drain: no interpolation.
        self.assertEqual(detail["http_slo_rps"], 2000)
        self.assertEqual(detail["http_step_3000_p99_ms"], 30.0)
        self.assertEqual(detail["throughput_ops_s"], 3000)
        raw["steps"][2] = step(3000, 16.0, False)
        _, _, detail, _ = metrics.reduce_run(raw)
        want = 2000 + 1000 * math.log(8 / 4) / math.log(16 / 4)
        self.assertAlmostEqual(detail["http_slo_rps"], want)


class Verdicts(unittest.TestCase):
    BOUND = 0.1

    def test_improved(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [v - 10 for v in parent]
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND), "improved")
        self.assertEqual(
            compare.verdict(change, parent, "higher", self.BOUND), "improved")

    def test_gain_needs_ten_pairs(self):
        parent = [100, 101, 99, 100, 102]
        change = [v - 5 for v in parent]
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND), "unchanged")

    def test_gain_needs_nine_in_ten_and_gap_beyond_spread(self):
        parent = [100] * 10
        change = [95] * 8 + [100, 100]  # 8 wins, 2 ties
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND), "unchanged")
        parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        change = [v - 1 for v in parent]  # wins every pair, tiny gap
        self.assertEqual(
            compare.verdict(parent, change, "lower", 0.25), "unchanged")

    def test_unchanged_within_bound(self):
        parent = [100, 101, 99, 100, 102]
        change = [104, 105, 103, 104, 106]
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND), "unchanged")

    def test_regressed(self):
        parent = [100, 101, 99, 100, 102]
        change = [115, 116, 114, 115, 117]
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND), "regressed")
        self.assertEqual(
            compare.verdict(change, parent, "higher", self.BOUND),
            "regressed")

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = [80, 120, 100, 90, 110]
        change = [85, 118, 104, 92, 111]
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND),
            "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [140, 160, 150, 120, 180]
        change = [100, 119, 90, 80, 110]
        self.assertEqual(
            compare.verdict(parent, change, "lower", self.BOUND), "unchanged")


class CompareRuns(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}

    @staticmethod
    def run(value, attempted=100, failed=0):
        return {"workload": "shell", "attempted": attempted,
                "failed": failed, "trace": False,
                "metrics": {"op_ms": {"value": value, "unit": "ms"}}}

    def test_failure_share_must_not_rise(self):
        parent = {"shell": [self.run(100), self.run(101)]}
        change = {"shell": [self.run(100), self.run(100, failed=1)]}
        rows, failures = compare.compare(self.SPEC, parent, change)
        self.assertEqual(rows[0][2], "unchanged")
        self.assertEqual(failures, [("shell", 0.0, 0.005, False)])
        _, failures = compare.compare(self.SPEC, change, parent)
        self.assertTrue(failures[0][3])

    def test_each_class_is_held_to_op_ms_bound(self):
        def run(a, b):
            rec = self.run(100)
            rec["classes"] = {"shell_a_ms": a, "shell_b_ms": b}
            return rec
        parent = {"shell": [run(10, 10), run(10, 10)]}
        change = {"shell": [run(10, 12), run(10, 12)]}
        rows, _ = compare.compare(self.SPEC, parent, change)
        self.assertEqual({r[1]: r[2] for r in rows},
                         {"op_ms": "unchanged", "shell_a_ms": "unchanged",
                          "shell_b_ms": "regressed"})

    def test_missing_metric_is_unresolved(self):
        broken = self.run(100)
        broken["metrics"] = {}
        rows, _ = compare.compare(self.SPEC, {"shell": [self.run(100)]},
                                  {"shell": [broken]})
        self.assertEqual(rows[0][2], "unresolved")


if __name__ == "__main__":
    unittest.main()
