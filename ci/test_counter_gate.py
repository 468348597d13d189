#!/usr/bin/env python3
"""Self-test for ci/counter_gate.py: synthetic reports built from
ci/benchmark-counters.json, checked against the gate's exit codes.

Run from anywhere (stdlib only):

    python3 ci/test_counter_gate.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CI = Path(__file__).resolve().parent
GATE = CI / "counter_gate.py"
BASELINE = json.loads((CI / "benchmark-counters.json").read_text())
DECLARATION = json.loads((CI.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]}


def baseline_result():
    """A correct, failure-free result whose counters equal the baseline."""
    metrics = {
        f"{workload}.{name}": {"value": value}
        for workload, counters in BASELINE.items()
        for name, value in counters.items()
    }
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}


class CounterGateTest(unittest.TestCase):
    def run_gate(self, result):
        """Writes `result` as a report's last line; returns (exit, stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "counters.txt"
            report.write_text("== smoke ==\nsome human-readable lines\n" + json.dumps(result) + "\n")
            done = subprocess.run(
                [sys.executable, str(GATE), str(report)],
                capture_output=True,
                text=True,
                check=False,
            )
        return done.returncode, done.stdout

    def test_unchanged_report_passes(self):
        code, out = self.run_gate(baseline_result())
        self.assertEqual(code, 0, out)
        self.assertNotIn("tighten", out)

    def test_improved_counter_passes_and_asks_to_tighten(self):
        result = baseline_result()
        result["metrics"]["warm-mix.core.labels_created"]["value"] -= 1
        code, out = self.run_gate(result)
        self.assertEqual(code, 0, out)
        self.assertIn("tighten", out)

    def test_every_lower_is_better_counter_up_by_one_fails(self):
        lower = [
            (workload, name)
            for workload, counters in BASELINE.items()
            for name in counters
            if BETTER[name] == "lower"
        ]
        self.assertTrue(lower)
        for workload, name in lower:
            with self.subTest(counter=f"{workload}.{name}"):
                result = baseline_result()
                result["metrics"][f"{workload}.{name}"]["value"] += 1
                code, out = self.run_gate(result)
                self.assertEqual(code, 1, out)

    def test_lowered_context_hit_ratio_fails(self):
        for workload, counters in BASELINE.items():
            name = "core.context_hit_ratio"
            self.assertEqual(BETTER[name], "higher")
            with self.subTest(workload=workload):
                result = baseline_result()
                key = f"{workload}.{name}"
                result["metrics"][key]["value"] = counters[name] / 2
                code, out = self.run_gate(result)
                self.assertEqual(code, 1, out)

    def test_missing_counter_fails(self):
        result = baseline_result()
        del result["metrics"]["cold-targets.core.trees_built"]
        code, out = self.run_gate(result)
        self.assertEqual(code, 1, out)
        self.assertIn("missing", out)

    def test_incorrect_run_fails(self):
        result = baseline_result()
        result["correct"] = False
        code, out = self.run_gate(result)
        self.assertEqual(code, 1, out)

    def test_failed_operation_fails(self):
        result = baseline_result()
        result["failed"] = 1
        code, out = self.run_gate(result)
        self.assertEqual(code, 1, out)


if __name__ == "__main__":
    unittest.main()
