#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload wire_rule --seed 1 --seconds 20 --trace 0

Workloads, metrics and their units are declared in BENCHMARK.json; each
workload's fixed settings live in perfbench/config.json. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The exit code is 0 only when the run is correct.

--smoke runs a tiny version of the workload (the benchmark's own test, see
perfbench/smoke_test.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "aps_perfbench")
# A run must end within 180 s; the child gets what is left after the build.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally (a no-op when up to date)."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "aps_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def wire_flags(settings, smoke):
    s = dict(settings)
    if smoke is not None:
        s.update(smoke["wire"])
    return [
        "--sessions", str(s["sessions"]),
        "--mix", ",".join(s["mix"]),
        "--rate", str(s["rate"]),
        "--limit-ms", str(s["limit_ms"]),
        "--in-flight", str(s["in_flight"]),
        "--churn-per-s", str(s["churn_per_s"]),
        "--listfile", "1" if s["listfile"] else "0",
        "--setup-reps", str(s["setup_reps"]),
        "--traces", str(s["traces"]),
    ]


def parse_output(stdout):
    env = result = None
    lines = []
    for line in stdout.splitlines():
        if line.startswith("ENV "):
            env = json.loads(line[4:])
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
        else:
            lines.append(line)
    return env, result, lines


def compare_design(reports, reference):
    """Count reports that differ from the recorded reference (each monitor's
    confusion matrix and the CAWT mitigation counts, per stack)."""
    differ = []
    for stack, monitors in reports.items():
        for name, counts in monitors.items():
            want = reference.get(stack, {}).get(name)
            if want != counts:
                differ.append(f"{stack}/{name}: got {counts}, reference {want}")
    return differ


def fill_idle_layers(metrics, declared, idle_prefixes):
    """Report 0 for the per-layer metrics of layers the workload does not
    exercise (its idle_layers in config.json). Returns the idle metrics the
    run measured anyway: the workload's definition is then wrong."""
    measured = []
    for m in declared:
        if not any(m["name"].startswith(p) for p in idle_prefixes):
            continue
        if m["name"] in metrics:
            measured.append(f"metric {m['name']} measured, but its layer is "
                            "declared idle for this workload")
        else:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    return measured


def check_metrics(metrics, declared):
    """The printed metrics must be exactly the declared ones, in their units."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name] != unit:
            problems.append(f"metric {name} in {got[name]}, declared {unit}")
    problems += [f"undeclared metric {name}" for name in got if name not in want]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload}")
        return 2
    smoke = config["smoke"] if args.smoke else None
    seconds = smoke["seconds"] if smoke else args.seconds

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    work_dir = os.path.join(BUILD_DIR, "work", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--smoke", "1" if smoke else "0"]
    if args.workload != "design":
        cmd += wire_flags(config["workloads"][args.workload], smoke)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env, result, lines = parse_output(proc.stdout)
    for line in lines:
        print(line)
    if proc.returncode != 0 or env is None or result is None:
        log(f"benchmark binary failed (exit {proc.returncode})")
        return 1
    print("environment: " + json.dumps(env, sort_keys=True))

    correct = result["correct"]
    failed = result["failed"]
    if args.workload == "design":
        reference = config["design_reference"]
        differ = compare_design(result["reports"], reference)
        for line in differ:
            print("design report differs from the reference: " + line)
        failed += len(differ)
        correct = correct and not differ
        print(f"design reports: {result['attempted']} checked against the "
              f"reference recorded for the paper's seed, {len(differ)} differ")

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    problems = []
    if args.trace:
        problems += fill_idle_layers(
            result["metrics"], declared,
            config["workloads"][args.workload]["idle_layers"])
    problems += check_metrics(result["metrics"], declared)
    for line in problems:
        log(line)
    if problems:
        return 1

    attempted = max(1, result["attempted"])
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
