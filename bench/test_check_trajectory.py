#!/usr/bin/env python3
"""Offline unit tests for the bench-trajectory gate (check_trajectory.py).

    python3 bench/test_check_trajectory.py

Each case writes a synthetic baseline and result directory and runs the
gate over them, so the gate's direction and ceilings are checked without
building or running any bench.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_trajectory  # noqa: E402

BASELINE = {
    "pipe_transfer_cap65536_mbps": (8192.0, "MB/s"),
    "typeset_native_mops": (625.0, "Mops/s"),
    "structured_clone_64b_us": (0.1, "us"),
    "pipeline_ring_ms": (100.0, "ms"),
    "pipeline_ring_notifies_per_call": (0.25, "ratio"),
    "typeset_guest_steps_per_ms": (1.0, "ratio"),
}


def write_bench(directory, rows):
    doc = {"bench": "pipe_micro",
           "metrics": [{"name": n, "value": v, "unit": u}
                       for n, (v, u) in rows.items()]}
    with open(os.path.join(directory, "pipe_micro.json"), "w") as f:
        json.dump(doc, f)


class Gate(unittest.TestCase):
    def gate(self, **changes):
        """Run the gate on BASELINE with `changes` applied to the result;
        returns (exit code, printed error lines)."""
        result = dict(BASELINE)
        for name, value in changes.items():
            result[name] = (value, BASELINE[name][1])
        with tempfile.TemporaryDirectory() as res, \
                tempfile.TemporaryDirectory() as base:
            write_bench(base, BASELINE)
            write_bench(res, result)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = check_trajectory.main([res, base, "--only",
                                            "pipe_micro"])
        errors = [l for l in out.getvalue().splitlines()
                  if l.startswith("::error::")]
        return rc, errors

    def assertFailsOn(self, name, **changes):
        rc, errors = self.gate(**changes)
        self.assertEqual(rc, 1)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn(f"pipe_micro/{name}:", errors[0])

    def test_unchanged_passes(self):
        self.assertEqual(self.gate(), (0, []))

    def test_collapsed_rate_fails(self):
        self.assertFailsOn("pipe_transfer_cap65536_mbps",
                           pipe_transfer_cap65536_mbps=1000.0)
        self.assertFailsOn("typeset_native_mops", typeset_native_mops=0.0)

    def test_faster_rate_passes(self):
        self.assertEqual(
            self.gate(pipe_transfer_cap65536_mbps=4 * 8192.0,
                      typeset_native_mops=10 * 625.0), (0, []))

    def test_slowed_timing_fails(self):
        self.assertFailsOn("structured_clone_64b_us",
                           structured_clone_64b_us=0.5)
        self.assertFailsOn("pipeline_ring_ms", pipeline_ring_ms=401.0)

    def test_faster_timing_passes(self):
        self.assertEqual(self.gate(structured_clone_64b_us=0.01), (0, []))

    def test_ratio_ceiling_fires(self):
        self.assertFailsOn("pipeline_ring_notifies_per_call",
                           pipeline_ring_notifies_per_call=0.9)

    def test_per_check_yielding_fails_the_quantum_ceiling(self):
        # A guest that yields at every interrupt check read ~160 steps
        # per ms of compute; one yield per quantum reads ~1.
        self.assertFailsOn("typeset_guest_steps_per_ms",
                           typeset_guest_steps_per_ms=160.0)
        self.assertEqual(self.gate(typeset_guest_steps_per_ms=1.3),
                         (0, []))

    def test_threshold_argument(self):
        with tempfile.TemporaryDirectory() as res, \
                tempfile.TemporaryDirectory() as base:
            write_bench(base, BASELINE)
            rows = dict(BASELINE)
            rows["pipe_transfer_cap65536_mbps"] = (4096.0, "MB/s")
            write_bench(res, rows)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(check_trajectory.main(
                    [res, base, "1.5", "--only", "pipe_micro"]), 1)
                self.assertEqual(check_trajectory.main(
                    [res, base, "2.5", "--only", "pipe_micro"]), 0)


if __name__ == "__main__":
    unittest.main()
