#!/usr/bin/env python3
"""Counter gate: the benchmark of record's deterministic work counters
must not get worse.

Run the benchmark in smoke profile, traced, and hand its report to the
gate (from the repository root):

    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --smoke --trace 1 > counters.txt
    python3 ci/counter_gate.py counters.txt

The report's last JSON line holds `correct`, `failed` and `metrics`.
`ci/benchmark-counters.json` holds the baseline: per workload, the
counters the gate checks and their values. The traced replay is serial
and in-process, so on the read-only workloads these counters repeat
exactly on any machine; the gate compares them exactly.

The gate fails (exit 1) when `correct` is not true, when `failed` is
not 0, when a baseline counter is missing from the report, or when a
counter moved in its worse direction. The direction is the metric's
`better` field in `BENCHMARK.json`. A counter that improved passes and
is listed, so the baseline can be tightened. Exit 2 means the gate
could not run: bad arguments, or a file that does not parse.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "ci" / "benchmark-counters.json"
DECLARATION = ROOT / "BENCHMARK.json"


def last_json_line(text):
    """The last line of `text` that parses as a JSON object, or None."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    return None


def directions(declaration):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    metrics = declaration["end_to_end"] + declaration["per_layer"]
    return {m["name"]: m["better"] for m in metrics}


def check(result, baseline, better):
    """Returns (failures, improvements, checked) as lists of lines."""
    failures, improvements, checked = [], [], []
    if result.get("correct") is not True:
        failures.append(f"correct is {json.dumps(result.get('correct'))}, not true")
    if result.get("failed") != 0:
        failures.append(f"failed is {json.dumps(result.get('failed'))}, not 0")
    metrics = result.get("metrics", {})
    for workload, counters in baseline.items():
        for name, base in counters.items():
            key = f"{workload}.{name}"
            if name not in better:
                failures.append(f"{key}: no `better` direction in BENCHMARK.json")
                continue
            if key not in metrics:
                failures.append(f"{key}: missing from the report (baseline {base})")
                continue
            value = metrics[key]["value"]
            lower = better[name] == "lower"
            line = f"{key}: {value} (baseline {base}, {better[name]} is better)"
            if (value > base) if lower else (value < base):
                failures.append(line)
            elif value != base:
                improvements.append(line)
            checked.append(line)
    return failures, improvements, checked


def main(argv):
    if len(argv) != 2:
        print("usage: counter_gate.py REPORT", file=sys.stderr)
        return 2
    try:
        report = Path(argv[1]).read_text()
        baseline = json.loads(BASELINE.read_text())
        better = directions(json.loads(DECLARATION.read_text()))
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"counter gate: {e}", file=sys.stderr)
        return 2
    result = last_json_line(report)
    if result is None:
        print(f"counter gate: FAIL: no JSON line in {argv[1]}")
        return 1
    failures, improvements, checked = check(result, baseline, better)
    for line in checked:
        print(f"  {line}")
    for line in improvements:
        print(f"counter gate: improved, tighten {BASELINE.name}: {line}")
    for line in failures:
        print(f"counter gate: FAIL: {line}")
    if failures:
        print(f"counter gate: {len(failures)} failure(s)")
        return 1
    print(f"counter gate: passed ({len(checked)} counters)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
