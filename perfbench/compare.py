#!/usr/bin/env python3
"""Compare two sets of saved benchmark outputs (the standard output of
perfbench/run.py, one file per run) metric by metric.

    python3 perfbench/compare.py --base a1.log a2.log ... --new b1.log ...

Prints each side's median and quartiles per metric and the change of the
medians against the bound BENCHMARK.json fixes. Refuses (exit 2) when the
runs' environment stamps differ in anything but the seed: results from
another core count, kernels backend, build type or compiler are not
comparable.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    env = None
    result = None
    with open(path) as f:
        for line in f:
            if line.startswith("environment: "):
                env = json.loads(line[len("environment: "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if env is None or result is None:
        raise SystemExit(f"{path}: not a perfbench/run.py output")
    env.pop("seed", None)
    return env, result


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}

    runs = {"base": [load(p) for p in args.base], "new": [load(p) for p in args.new]}
    stamps = {json.dumps(env, sort_keys=True)
              for side in runs.values() for env, _ in side}
    if len(stamps) > 1:
        print("refusing to compare: environment stamps differ:")
        for stamp in sorted(stamps):
            print("  " + stamp)
        return 2

    for name, spec in declared.items():
        base = [r["metrics"][name]["value"] for _, r in runs["base"]
                if name in r["metrics"]]
        new = [r["metrics"][name]["value"] for _, r in runs["new"]
               if name in r["metrics"]]
        if not base or not new:
            continue
        b = summary(base)
        n = summary(new)
        change = (n[1] - b[1]) / b[1] if b[1] else 0.0
        worse = change if spec["better"] == "lower" else -change
        verdict = "worse beyond bound" if worse > spec["bound"] else "within bound"
        print(f"{name:18s} base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
              f"new {n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}]  "
              f"{100 * change:+.1f}% ({verdict}, bound {spec['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
