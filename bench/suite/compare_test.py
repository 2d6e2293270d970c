#!/usr/bin/env python3
"""Tests of compare.py on synthetic result sets."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def write_side(directory, latencies, rates, failed=0):
    directory.mkdir()
    for i, (latency, rate) in enumerate(zip(latencies, rates)):
        result = {"workload": "w", "trace": 0, "correct": True,
                  "attempted": 100, "failed": failed,
                  "metrics": {"latency_ms": {"value": latency, "unit": "ms"},
                              "rate": {"value": rate, "unit": "1/s"}}}
        (directory / f"{i:02d}.json").write_text(
            json.dumps({"seed": i, "seconds": 1, "results": [result]}))


def verdicts(parent, change, failed=(0, 0)):
    with tempfile.TemporaryDirectory() as tmp:
        write_side(Path(tmp) / "parent", *parent, failed=failed[0])
        write_side(Path(tmp) / "change", *change, failed=failed[1])
        rows = compare.compare(Path(tmp) / "parent", Path(tmp) / "change",
                               SPEC)
    return {r["metric"]: r["verdict"] for r in rows}


STEADY = [100 + i * 0.1 for i in range(10)]  # spread well under 10%


class CompareTest(unittest.TestCase):
    def test_consistent_win_is_a_gain(self):
        faster = [x * 0.8 for x in STEADY]
        busier = [x * 1.25 for x in STEADY]
        self.assertEqual(verdicts((STEADY, STEADY), (faster, busier)),
                         {"latency_ms": "gain", "rate": "gain"})

    def test_a_gain_needs_ten_pairs(self):
        faster = [x * 0.8 for x in STEADY]
        self.assertEqual(
            verdicts((STEADY[:5], STEADY[:5]), (faster[:5], STEADY[:5])),
            {"latency_ms": "same", "rate": "same"})
        with mock.patch.object(compare, "MIN_PAIRS", 5):
            self.assertEqual(
                verdicts((STEADY[:5], STEADY[:5]), (faster[:5], STEADY[:5]))
                ["latency_ms"], "gain")

    def test_a_gain_with_more_failures_does_not_count(self):
        faster = [x * 0.8 for x in STEADY]
        self.assertEqual(
            verdicts((STEADY, STEADY), (faster, STEADY),
                     failed=(0, 1))["latency_ms"], "same")

    def test_nine_wins_of_ten_suffice_but_eight_do_not(self):
        nine = [x * 0.8 for x in STEADY[:9]] + [STEADY[9] * 1.01]
        eight = [x * 0.8 for x in STEADY[:8]] + [x * 1.01 for x in STEADY[8:]]
        self.assertEqual(verdicts((STEADY, STEADY), (nine, STEADY))
                         ["latency_ms"], "gain")
        self.assertEqual(verdicts((STEADY, STEADY), (eight, STEADY))
                         ["latency_ms"], "same")

    def test_worse_than_the_bound_is_a_regression(self):
        slower = [x * 1.3 for x in STEADY]
        idler = [x * 0.7 for x in STEADY]
        self.assertEqual(verdicts((STEADY, STEADY), (slower, idler)),
                         {"latency_ms": "regression", "rate": "regression"})

    def test_worse_within_the_bound_is_the_same(self):
        slower = [x * 1.05 for x in STEADY]
        self.assertEqual(verdicts((STEADY, STEADY), (slower, STEADY)),
                         {"latency_ms": "same", "rate": "same"})

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 70, 130, 90, 110, 65, 135]
        self.assertEqual(verdicts((noisy, STEADY), (noisy[::-1], STEADY)),
                         {"latency_ms": "unresolved", "rate": "same"})

    def test_noisy_but_always_better_is_not_unresolved(self):
        parent = [200, 260, 220, 280, 240, 210, 270, 230, 250, 290]
        change = [100, 150, 110, 140, 120, 105, 145, 115, 135, 125]
        self.assertEqual(verdicts((parent, STEADY), (change, STEADY))
                         ["latency_ms"], "gain")

    def test_cli_exits_1_on_a_regression(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps(SPEC))
            write_side(Path(tmp) / "parent", STEADY, STEADY)
            write_side(Path(tmp) / "change", [x * 1.3 for x in STEADY],
                       STEADY)
            script = Path(__file__).resolve().parent / "compare.py"
            run = subprocess.run(
                [sys.executable, str(script), str(Path(tmp) / "parent"),
                 str(Path(tmp) / "change"), "--spec", str(spec)],
                capture_output=True, text=True)
        self.assertEqual(run.returncode, 1)
        self.assertIn("regression", run.stdout)
        self.assertEqual(len(run.stdout.strip().splitlines()), 3)


if __name__ == "__main__":
    unittest.main()
