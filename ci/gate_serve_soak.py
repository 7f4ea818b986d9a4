#!/usr/bin/env python3
"""Regression gate over BENCH_serve_soak.json.

Belt and braces next to the bench's own exit code: re-checks the recorded
JSON so the gate also covers what actually lands in the published artifact.
Checks the calm soak stage (p99 budget, flat RSS, zero degraded cycles --
admission is off there, so nothing may degrade -- churn actually happened)
and both admission overload stages:

  * overload_degrade -- the ladder sat at kDegrade, 2x offered load was
    absorbed with zero sheds, and tick p99 stayed inside the same budget
    the calm soak is held to;
  * overload_shed -- the ladder sat at kShed, no in-quota ("care") cycle
    was ever dropped, the over-quota ("bulk") tenant shed a nonzero
    excess, offered == served + shed reconciles exactly, and every
    session-open attempted while shedding came back as a typed reject.

Usage: gate_serve_soak.py [path-to-BENCH_serve_soak.json]
"""
import json
import sys

P99_BUDGET_US = 250_000
RSS_SLACK_MB = 64


def stage(data, prefix):
    return next(
        (s for s in data["stages"] if s["name"].startswith(prefix)), None)


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_serve_soak.json"
    data = json.load(open(path))
    failures = []

    soak = stage(data, "soak/")
    if soak is None:
        sys.exit("FAIL: no soak stage recorded")
    print(f"{soak['name']}: {soak['runs_per_s']:.0f} cycles/s, "
          f"p99 {soak['p99_us'] / 1000:.2f} ms, "
          f"RSS {soak['rss_first_mb']:.1f} -> {soak['rss_last_mb']:.1f} MB, "
          f"degraded {soak['degraded_cycles']:.0f}, "
          f"churn {soak['churn_events']:.0f}")
    if soak["p99_us"] > P99_BUDGET_US:
        failures.append(
            f"soak tick p99 {soak['p99_us'] / 1000:.2f} ms > "
            f"{P99_BUDGET_US / 1000:.0f} ms budget")
    if soak["rss_growth_mb"] > RSS_SLACK_MB:
        failures.append(
            f"RSS grew {soak['rss_growth_mb']:.1f} MB across the soak")
    if soak["degraded_cycles"] != 0:
        failures.append(f"{soak['degraded_cycles']:.0f} degraded cycles "
                        f"with admission off")
    if soak["churn_events"] <= 0:
        failures.append("no churn events recorded")

    degrade = stage(data, "overload_degrade/")
    if degrade is None:
        failures.append("no overload_degrade stage recorded")
    else:
        print(f"{degrade['name']}: state {degrade['overload_state']:.0f}, "
              f"p99 {degrade['p99_us'] / 1000:.2f} ms, "
              f"served {degrade['served_cycles']:.0f}/"
              f"{degrade['offered_cycles']:.0f}, "
              f"degraded {degrade['degraded_cycles']:.0f}")
        if degrade["overload_state"] != 1:
            failures.append(
                f"overload_degrade: ladder sat at "
                f"{degrade['overload_state']:.0f}, expected kDegrade (1)")
        if degrade["shed_cycles"] != 0:
            failures.append(
                f"overload_degrade: {degrade['shed_cycles']:.0f} cycles "
                f"shed in the degrade-only stage")
        if degrade["p99_us"] > P99_BUDGET_US:
            failures.append(
                f"overload_degrade: p99 {degrade['p99_us'] / 1000:.2f} ms "
                f"over budget at 2x load")

    shed = stage(data, "overload_shed/")
    if shed is None:
        failures.append("no overload_shed stage recorded")
    else:
        total_shed = shed["shed_tick_care"] + shed["shed_tick_bulk"]
        print(f"{shed['name']}: state {shed['overload_state']:.0f}, "
              f"offered {shed['offered_cycles']:.0f} = "
              f"served {shed['served_cycles']:.0f} + shed {total_shed:.0f} "
              f"(care {shed['shed_tick_care']:.0f}, "
              f"bulk {shed['shed_tick_bulk']:.0f}), "
              f"opens rejected {shed['shed_open']:.0f}/"
              f"{shed['open_attempts']:.0f}")
        if shed["overload_state"] != 2:
            failures.append(
                f"overload_shed: ladder sat at "
                f"{shed['overload_state']:.0f}, expected kShed (2)")
        if shed["shed_tick_care"] != 0:
            failures.append(
                f"overload_shed: in-quota tenant lost "
                f"{shed['shed_tick_care']:.0f} cycles")
        if shed["shed_tick_bulk"] == 0:
            failures.append(
                "overload_shed: over-quota tenant shed nothing at 2x load")
        if shed["offered_cycles"] != shed["served_cycles"] + total_shed:
            failures.append(
                f"overload_shed: offered {shed['offered_cycles']:.0f} != "
                f"served {shed['served_cycles']:.0f} + shed {total_shed:.0f}")
        if (shed["open_attempts"] == 0
                or shed["shed_open"] != shed["open_attempts"]):
            failures.append(
                f"overload_shed: {shed['shed_open']:.0f} typed open rejects "
                f"for {shed['open_attempts']:.0f} attempts while shedding")

    for failure in failures:
        print("FAIL:", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
