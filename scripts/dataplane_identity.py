#!/usr/bin/env python
"""Record every builtin scenario's run summary, or compare two records.

A data-plane change that should not move the simulation's RNG stream must
leave every builtin scenario's ``SimulationSummary`` identical, field by
field.  Write a record in a checkout of the parent commit and one in the
change, then compare them::

    PYTHONPATH=src python scripts/dataplane_identity.py --write parent.json
    PYTHONPATH=src python scripts/dataplane_identity.py --write change.json
    python scripts/dataplane_identity.py --compare parent.json change.json

``--write`` runs each name of ``repro.scenarios.scenario_names()`` at seed 0
with ``duration_s=15`` and stores ``dataclasses.asdict(summary)`` plus the
engine's ``events_processed`` under the key ``engine.events_processed`` and
the simulation stream's final bit-generator state (after ``sim.rng.sync()``)
under ``rng.final_state``.  The builtins run only two of the four drop
policies, and not the two whose ``on_arrival`` can drop, so the record also
holds ``traffic_azure`` under every name of ``repro.core.dropping.POLICY_NAMES``,
keyed ``traffic_azure@<policy>``.  The builtins run no baseline either, so it
also holds ``traffic_azure`` under the ``inferline`` and ``proteus`` systems
of ``repro.scenarios.spec.SYSTEM_FACTORIES``, keyed ``traffic_azure@<system>``
(each with its own default drop policy): a baseline change shows there.  Every
scenario runs exactly as registered (apart from that policy or system override): the default solver budget
(:data:`repro.solver.DEFAULT_SOLVER_OPTIONS`) bounds HiGHS by branch-and-bound
nodes, not seconds, so a record depends on the code alone and two records of
one commit are identical even when written concurrently on a loaded host.

``--compare`` reports each scenario as ``identical`` or ``DIFFERENT``, with
NaN equal to NaN.  A key only the second record has (a telemetry counter the
change added) is listed but is not a difference; a key it lost, or a value
that moved, is.  The event count is not part of the summary: each line
shows it (``events A -> B`` when it moved) without making the scenario
differ, so an event-core change shows its count beside the identity.  The
final RNG state is compared like a summary field: a change that draws in
another order, or draws more or less, differs there even when no summary
field happens to move.  The exit code is 0 only when no scenario differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

DURATION_S = 15
SEED = 0
#: record key of the run's engine event count, next to the summary fields
EVENTS = "engine.events_processed"
#: record key of the simulation stream's final bit-generator state
RNG_STATE = "rng.final_state"
#: the builtin recorded once under each drop policy, as ``<name>@<policy>``,
#: and once under each baseline system, as ``<name>@<system>``
POLICY_SCENARIO = "traffic_azure"
#: the systems the builtins do not run
BASELINE_SYSTEMS = ("inferline", "proteus")


def run_scenario(name: str) -> dict:
    """One builtin scenario's summary at seed 0 and ``duration_s=15``, as a
    dict, with the engine's event count under :data:`EVENTS` and the final
    bit-generator state of the simulation stream under :data:`RNG_STATE`.

    ``<scenario>@<policy>`` runs the scenario under that drop policy and
    ``<scenario>@<system>`` under that serving system."""
    from repro.scenarios import get_scenario

    scenario, _, override = name.partition("@")
    spec = get_scenario(scenario)
    spec = spec.with_overrides(trace_params={**spec.trace_params, "duration_s": DURATION_S})
    if override in BASELINE_SYSTEMS:
        spec = spec.with_overrides(system=override)
    elif override:
        spec = spec.with_overrides(drop_policy=override)
    sim = spec.build(seed=SEED)
    summary = dataclasses.asdict(sim.run())
    # run() ends with sim.rng.sync(), so this is where the draws left it
    state = sim.rng.generator.bit_generator.state
    return {**summary, EVENTS: sim.engine.events_processed, RNG_STATE: state}


def record_names() -> list:
    """Every builtin, then :data:`POLICY_SCENARIO` under each drop policy and
    each of :data:`BASELINE_SYSTEMS`."""
    from repro.core.dropping import POLICY_NAMES
    from repro.scenarios import scenario_names

    overrides = [*sorted(POLICY_NAMES), *BASELINE_SYSTEMS]
    return [*scenario_names(), *(f"{POLICY_SCENARIO}@{override}" for override in overrides)]


def write_record(path: str, names=None) -> dict:
    record = {}
    for name in names or record_names():
        start = time.perf_counter()
        record[name] = run_scenario(name)
        print(f"{name}: {time.perf_counter() - start:.1f} s", flush=True)
    with open(path, "w") as handle:
        # NaN is written as the JSON extension literal, which json.load reads back
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def _equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def compare_summaries(a: dict, b: dict, prefix: str = ""):
    """``(differences, added)``: dotted field names whose values differ or that
    ``b`` lacks, and field names only ``b`` has."""
    differences, added = [], []
    for key in sorted(set(a) | set(b)):
        name = f"{prefix}{key}"
        if key not in b:
            differences.append(name)
        elif key not in a:
            added.append(name)
        elif isinstance(a[key], dict) and isinstance(b[key], dict):
            sub_diff, sub_added = compare_summaries(a[key], b[key], prefix=f"{name}.")
            differences.extend(sub_diff)
            added.extend(sub_added)
        elif not _equal(a[key], b[key]):
            differences.append(name)
    return differences, added


def _events(first, second) -> str:
    """The event-count note of one scenario's line ('' when neither record has one)."""
    if first is None and second is None:
        return ""
    if first == second:
        return f"; events {first}"
    return f"; events {'?' if first is None else first} -> {'?' if second is None else second}"


def compare_records(a: dict, b: dict) -> int:
    """Print one line per scenario; return the number of scenarios that differ."""
    differing = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            differing += 1
            print(f"{name}: DIFFERENT (only in {'the first' if name in a else 'the second'} record)")
            continue
        first, second = dict(a[name]), dict(b[name])
        events = _events(first.pop(EVENTS, None), second.pop(EVENTS, None))
        differences, added = compare_summaries(first, second)
        extra = f"; new keys: {', '.join(added)}" if added else ""
        extra += events
        if differences:
            differing += 1
            print(f"{name}: DIFFERENT in {', '.join(differences)}{extra}")
        else:
            print(f"{name}: identical{extra}")
    total = len(set(a) | set(b))
    print(f"{total - differing} of {total} scenarios identical")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="OUT", help="run every recorded scenario and write the record")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.write:
        write_record(args.write)
        return 0
    with open(args.compare[0]) as handle:
        first = json.load(handle)
    with open(args.compare[1]) as handle:
        second = json.load(handle)
    return 1 if compare_records(first, second) else 0


if __name__ == "__main__":
    sys.exit(main())
