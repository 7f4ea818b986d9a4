#!/usr/bin/env python3
"""The benchmark's own test: a tiny run of every workload, untraced and
traced, checking that each prints exactly the metric names and units that
BENCHMARK.json declares and reports a correct run.

    python3 perfbench/smoke_test.py

Takes about 30 s (the first call also builds the benchmark binary).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    failures = []
    for workload in benchmark["workloads"]:
        for trace in (0, 1):
            declared = benchmark["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload["name"], "--seed", "1",
                   "--seconds", "2", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            label = f"{workload['name']} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no JSON result (exit {proc.returncode})")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"]:
                failures.append(f"{label}: run not correct (exit {proc.returncode})")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if got != want:
                failures.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                                "differ from BENCHMARK.json, or units differ")
            print(f"{label}: {len(got)} metrics, correct={result['correct']}",
                  flush=True)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
