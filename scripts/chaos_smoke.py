#!/usr/bin/env python
"""Chaos smoke: run the builtin chaos scenarios and check accounting closure.

CI runs this as a blocking step.  Both chaos scenarios (crash/restart cycles
with retries + failover, stragglers + a network spike with hedging) must keep
the request books balanced no matter how many retries, hedges and
crash/repair cycles raced over each request: ``completed + dropped + late ==
submitted``, the ``frontend.requests`` counter equals the submitted count,
and for each outcome the per-interval sum and the ``requests.*`` counter
equal the summary total (the checks of the e2e benchmark's
``accounting_problems``).  The script prints a markdown table of the
fault/resilience counters (suitable for ``$GITHUB_STEP_SUMMARY``) and exits
non-zero on any leak.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--seeds 0,1] [--markdown]
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import get_scenario

SCENARIOS = ("chaos_crash_restart", "chaos_stragglers")

COUNTERS = (
    "faults.injected",
    "faults.recovered",
    "faults.slowdowns",
    "faults.network_spikes",
    "queries.dropped_on_fault",
    "resilience.retries",
    "resilience.failover_requeued",
    "resilience.hedges",
    "resilience.hedge_wins",
    "resilience.timeouts",
)


def closure_problems(summary) -> list:
    """Every way the run's request tallies fail to agree (empty when closed)."""
    submitted = summary.total_requests
    problems = []
    finished = summary.completed_requests + summary.dropped_requests + summary.late_requests
    if finished != submitted:
        problems.append(f"{finished} finished != {submitted} submitted")
    requests = summary.telemetry.get("frontend.requests", 0)
    if requests != submitted:
        problems.append(f"frontend.requests={requests:g} != {submitted} submitted")
    for kind in ("completed", "dropped", "late"):
        total = getattr(summary, f"{kind}_requests")
        interval_sum = sum(getattr(interval, kind) for interval in summary.intervals)
        if interval_sum != total:
            problems.append(f"interval {kind}={interval_sum} but the summary has {total}")
        counter = summary.telemetry.get(f"requests.{kind}", 0)
        if counter != total:
            problems.append(f"requests.{kind}={counter:g} but the summary has {total}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1", help="comma-separated seeds")
    parser.add_argument(
        "--markdown", action="store_true", help="emit a markdown summary table"
    )
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    rows = []
    leaks = []
    for name in SCENARIOS:
        spec = get_scenario(name)
        for seed in seeds:
            summary = spec.run(seed=seed)
            problems = closure_problems(summary)
            leaks.extend(f"{name} seed={seed}: {problem}" for problem in problems)
            rows.append((name, seed, summary, not problems))

    if args.markdown:
        print("### Chaos smoke")
        print()
        header = ["scenario", "seed", "submitted", "closed"] + [
            c.split(".", 1)[1] for c in COUNTERS
        ]
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for name, seed, summary, closed in rows:
            cells = [name, str(seed), str(summary.total_requests)]
            cells.append("yes" if closed else "**LEAK**")
            for counter in COUNTERS:
                cells.append(str(int(summary.telemetry.get(counter, 0))))
            print("| " + " | ".join(cells) + " |")
        print()
    else:
        for name, seed, summary, closed in rows:
            counters = {
                c: int(summary.telemetry.get(c, 0))
                for c in COUNTERS
                if summary.telemetry.get(c, 0)
            }
            status = "ok" if closed else "LEAK"
            print(f"{name} seed={seed}: {status} ({summary.total_requests} submitted) {counters}")

    if leaks:
        print("ACCOUNTING LEAKS:", file=sys.stderr)
        for leak in leaks:
            print(f"  {leak}", file=sys.stderr)
        return 1
    print(f"chaos smoke: {len(rows)} runs, accounting closed on all of them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
