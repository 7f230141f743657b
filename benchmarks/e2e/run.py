#!/usr/bin/env python3
"""End-to-end benchmark of the Loki reproduction on four paper-shaped workloads.

Run from the repository root:

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--reps R | --seconds S] [--trace [0|1]] [--json OUT]
    python3 benchmarks/e2e/run.py --compare PARENT.json CHANGE.json

Every repetition is a fresh child process (``child.py``), so imports and the
solver cache start cold; fig5_loki, fig6_loki and fig5_proteus simulate
several seeds per repetition.  Children run one at a time, single-threaded, and
repetitions go round-robin across workloads.  ``--trace`` adds one traced
repetition per workload for the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer ones with ``--trace 1``).
The exit code is non-zero when a run raised, timed out or failed a check.
See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (benchmark-local module next to this file)

#: extra workloads for the harness's own tests; not part of BENCHMARK.json
TEST_WORKLOADS = ("smoke", "smoke_raises")
#: set-up-only children per workload, so setup_s is a median even when the
#: time budget allows a single repetition; the first also checks capacity
SETUP_CHILDREN = 2
#: per-child limit in --reps mode; --seconds mode shares one deadline instead
CHILD_TIMEOUT_S = 600.0
#: --seconds mode: every child must end this long after the command started
DEADLINE_S = 170.0
#: capacity gain max_supported_demand() / max_supported_demand(restrict_to_best=True)
#: on a 20-worker cluster at a 250 ms SLO (150 ms for single_task, as in `smoke`)
CAPACITY_REFERENCE = {"traffic_analysis": 5.734, "social_media": 9.213, "single_task": 10.015}
CAPACITY_RTOL = 1e-3
SIM_METRICS = ("sim_slo_attainment", "sim_mean_accuracy", "sim_mean_workers")
#: calibration-loop CPU time (child.calibration_loop) of the reference
#: machine; on the machine of reference.json it reads 0.028-0.033 s when the
#: shared host is quiet and up to 0.065 s when it is busy.  Set-up times are
#: scaled by CALIBRATION_REF_S over the child's own calibration time taken
#: around them, which cancels most of a shared host's speed drift; the raw
#: seconds are reported too.
CALIBRATION_REF_S = 0.031
#: the same for the fixed solve of child.calibration_milp, sampled while the
#: simulations run (0.034-0.056 s on that machine), which scales run times
RUN_CALIBRATION_REF_S = 0.035


def scaled(result: dict, key: str, calibration: str, reference: float = CALIBRATION_REF_S) -> float:
    """A child's host time in reference-machine seconds."""
    return result[key] * reference / result[calibration]


class RunFailed(Exception):
    """A child raised, timed out or printed no result."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(mode: str, workload: str, seed: int, flags=(), deadline: Optional[float] = None) -> dict:
    """Run one child to completion and return its JSON result."""
    timeout = CHILD_TIMEOUT_S if deadline is None else deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"{mode} {workload}: not started, the {DEADLINE_S:.0f} s deadline has passed")
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), *flags]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} {workload}: killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise RunFailed(f"{mode} {workload}: exit code {proc.returncode}: {last}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{mode} {workload}: printed no result") from None


# -- correctness checks ---------------------------------------------------------
def accounting_problems(rep: dict) -> List[str]:
    """Request accounting must close, and every counting path must agree."""
    a = rep["accounting"]
    problems = []
    if a["unfinished"] < 0:
        problems.append(f"completed+dropped+late exceeds submitted by {-a['unfinished']}")
    if a["collector_arrivals"] != a["submitted"]:
        problems.append(f"the metrics collector saw {a['collector_arrivals']} arrivals of {a['submitted']} submitted")
    for kind in ("completed", "dropped", "late"):
        for path in ("interval", "telemetry"):
            if a[f"{path}_{kind}"] != a[kind]:
                problems.append(f"{path} {kind}={a[f'{path}_{kind}']} but the summary has {a[kind]}")
    return problems


def sim_signature(rep: dict) -> tuple:
    return tuple(rep[name] for name in SIM_METRICS)


def capacity_problems(capacity: dict) -> List[str]:
    reference = CAPACITY_REFERENCE.get(capacity["pipeline"])
    if reference is None:
        return [f"no capacity-gain reference for pipeline {capacity['pipeline']}"]
    if abs(capacity["gain"] / reference - 1.0) > CAPACITY_RTOL:
        return [f"capacity gain {capacity['gain']:.4f}x differs from the reference {reference}x"]
    return []


# -- running ----------------------------------------------------------------------
@dataclass
class WorkloadRuns:
    """Everything the children of one workload reported."""

    name: str
    #: every child whose set-up counts: set-up-only children and valid reps
    setups: List[dict] = field(default_factory=list)
    reps: List[dict] = field(default_factory=list)
    traced: Optional[dict] = None
    capacity: Optional[dict] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    reps_attempted: int = 0
    rep_elapsed_s: float = 0.0
    aborted: bool = False

    def run_child(self, mode, seed, flags=(), deadline=None) -> Optional[dict]:
        self.attempted += 1
        try:
            return spawn(mode, self.name, seed, flags, deadline)
        except RunFailed as exc:
            self.failures.append(str(exc))
            return None

    def rep_problems(self, result: dict) -> List[str]:
        """Request accounting, and sim metrics bit-identical to the first rep's."""
        problems = accounting_problems(result)
        if self.reps and sim_signature(result) != sim_signature(self.reps[0]):
            problems.append(f"sim metrics {sim_signature(result)} differ from rep 1's {sim_signature(self.reps[0])}")
        return problems


def run_benchmark(workloads, seed, reps, seconds, trace) -> Dict[str, WorkloadRuns]:
    deadline = time.monotonic() + DEADLINE_S if seconds is not None else None
    runs = {name: WorkloadRuns(name) for name in workloads}

    for index in range(SETUP_CHILDREN):
        for w in runs.values():
            if w.aborted:
                continue
            result = w.run_child("setup", seed, ("--capacity",) if index == 0 else (), deadline)
            if result is None:
                w.aborted = True  # a workload that cannot even be built gets no repetitions
                continue
            w.setups.append(result)
            if "capacity" in result:
                w.capacity = result["capacity"]
                w.failures.extend(f"setup {w.name}: {p}" for p in capacity_problems(w.capacity))

    def wants_rep(w: WorkloadRuns) -> bool:
        if w.aborted:
            return False
        if seconds is None:
            return w.reps_attempted < reps
        return w.reps_attempted == 0 or w.rep_elapsed_s < seconds

    while True:
        pending = [w for w in runs.values() if wants_rep(w)]
        if not pending:
            break
        for w in pending:  # one round: a transient slowdown hits every workload alike
            started = time.monotonic()
            w.reps_attempted += 1
            result = w.run_child("rep", seed, (), deadline)
            w.rep_elapsed_s += time.monotonic() - started
            if result is None:
                continue
            problems = w.rep_problems(result)
            if problems:
                w.failures.extend(f"rep {w.name}: {p}" for p in problems)
                continue
            w.setups.append(result)
            w.reps.append(result)

    if trace:
        for w in runs.values():
            if w.aborted:
                continue
            result = w.run_child("rep", seed, ("--trace",), deadline)
            if result is None:
                continue
            problems = w.rep_problems(result) + tracer.check_nesting(result["spans"])
            if problems:
                w.failures.extend(f"traced rep {w.name}: {p}" for p in problems)
                continue
            w.traced = result
    return runs


# -- aggregation --------------------------------------------------------------------
def stats(values: List[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``), count and samples."""
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values), "samples": values}


def end_to_end(w: WorkloadRuns) -> Dict[str, dict]:
    """The BENCHMARK.json end-to-end metrics, then the raw host times behind them."""
    samples = {
        "run_cpu_s": [scaled(rep, "run_cpu_s", "run_calibration_s", RUN_CALIBRATION_REF_S) for rep in w.reps],
        "setup_s": [scaled(child, "setup_s", "calibration_s") for child in w.setups],
    }
    for name in ("peak_rss_mb", *SIM_METRICS):
        samples[name] = [rep[name] for rep in w.reps]
    samples["run_wall_raw_s"] = [rep["run_wall_s"] for rep in w.reps]
    samples["run_cpu_raw_s"] = [rep["run_cpu_s"] for rep in w.reps]
    samples["setup_raw_s"] = [child["setup_s"] for child in w.setups]
    samples["run_calibration_s"] = [rep["run_calibration_s"] for rep in w.reps]
    samples["calibration_s"] = [child["calibration_s"] for child in w.setups]
    return {name: stats(values) for name, values in samples.items() if values}


def per_layer(w: WorkloadRuns) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition, in raw host seconds."""
    if w.traced is None:
        return {}
    metrics = tracer.layer_metrics(w.traced["spans"], w.traced["counters"], w.traced, w.traced["run_wall_s"])
    if w.reps:
        untraced = statistics.median(rep["run_wall_s"] for rep in w.reps)
        metrics["trace.overhead_s"] = w.traced["run_wall_s"] - untraced
    return metrics


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions}


def report(runs, benchmark, seed, args) -> dict:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    units.update(
        run_wall_raw_s="s", run_cpu_raw_s="s", setup_raw_s="s", run_calibration_s="s", calibration_s="s",
    )
    out = {"machine": machine(), "seed": seed, "reps": args.reps, "seconds": args.seconds, "workloads": {}}
    for w in runs.values():
        e2e = end_to_end(w)
        for name, entry in e2e.items():
            entry["unit"] = units.get(name, "")
        layers = per_layer(w)
        first = w.reps[0] if w.reps else None
        out["workloads"][w.name] = {
            "sim_seeds": w.setups[0]["sim_seeds"] if w.setups else None,
            "metrics": e2e,
            "per_layer": {name: {"value": value, "unit": units.get(name, "")} for name, value in layers.items()},
            "requests": first and {
                k: first["accounting"][k] for k in ("submitted", "completed", "dropped", "late", "unfinished")
            },
            "per_seed": first and first["per_seed"],
            "capacity": w.capacity,
            "attempted": w.attempted,
            "failures": w.failures,
        }
    out["attempted"] = sum(w.attempted for w in runs.values())
    out["runs_failed"] = sum(len(w.failures) for w in runs.values())
    return out


# -- printing -----------------------------------------------------------------------
def print_report(out: dict, benchmark: dict) -> None:
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    for name, w in out["workloads"].items():
        n_reps = w["metrics"].get("run_cpu_s", {}).get("n", 0)
        print(
            f"\n== {name} (seed {out['seed']}, simulated seeds {w['sim_seeds']}): {n_reps} reps, "
            f"{w['attempted']} runs, {len(w['failures'])} failed"
        )
        print(f"  {'metric':<22} {'unit':<8} {'median':>13} {'p25':>13} {'p75':>13} {'n':>3}  bound")
        for metric, s in w["metrics"].items():
            spec = bounds.get(metric)
            bound = f"{spec['bound']:.0%} ({spec['better']} is better)" if spec else ""
            print(
                f"  {metric:<22} {s['unit']:<8} {s['median']:>13.6g} {s['p25']:>13.6g} {s['p75']:>13.6g}"
                f" {s['n']:>3}  {bound}"
            )
        a = w["requests"]
        if a is not None:
            print(
                f"  simulated requests: sent {a['submitted']}, ok within SLO {a['completed']}, "
                f"missed {a['dropped'] + a['late'] + a['unfinished']} = dropped {a['dropped']} + "
                f"late {a['late']} + unfinished at the horizon {a['unfinished']}"
            )
        if w["capacity"] is not None:
            c = w["capacity"]
            print(
                f"  capacity gain ({c['pipeline']}, 20 workers): {c['gain']:.4f}x, "
                f"reference {CAPACITY_REFERENCE.get(c['pipeline'])}x"
            )
        if w["per_layer"]:
            print_layers(w)
        for failure in w["failures"]:
            print(f"  FAILED: {failure}")


def print_layers(w: dict) -> None:
    shares = tracer.layer_self_times({name: entry["value"] for name, entry in w["per_layer"].items()})
    wall = sum(shares.values())
    print(f"  layer self time, share of the traced run_wall_s ({wall:.3f} s):")
    for layer, seconds in shares.items():
        print(f"    {layer:<13} {seconds:>9.3f} s {seconds / wall if wall else 0.0:>7.1%}")
    print(f"  {'per-layer metric':<32} {'unit':<8} {'value':>13}")
    for name, entry in w["per_layer"].items():
        print(f"  {name:<32} {entry['unit']:<8} {entry['value']:>13.6g}")


def write_traces(runs: Dict[str, WorkloadRuns], seed: int, out_dir: Path) -> None:
    """Each traced run as JSON spans plus Chrome trace-event JSON."""
    traced = [w for w in runs.values() if w.traced is not None]
    if not traced:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    for w in traced:
        run_id = f"{w.name}-seed{seed}"
        stem = out_dir / f"trace_{w.name}_seed{seed}"
        spans = [dict(zip(("id", "parent", "name", "start_s", "end_s", "args"), s)) for s in w.traced["spans"]]
        Path(f"{stem}.spans.json").write_text(json.dumps({"run_id": run_id, "spans": spans}))
        Path(f"{stem}.chrome.json").write_text(json.dumps(tracer.chrome_trace(w.traced["spans"], run_id)))
        print(f"  trace written: {stem}.{{spans,chrome}}.json")


def result_line(out: dict, benchmark: dict, trace_metrics: bool) -> dict:
    """The result line: medians of the end-to-end (or per-layer) metrics."""
    declared = benchmark["per_layer" if trace_metrics else "end_to_end"]
    prefix = len(out["workloads"]) > 1
    metrics = {}
    complete = True
    for wname, w in out["workloads"].items():
        for m in declared:
            if trace_metrics:
                value = w["per_layer"].get(m["name"], {}).get("value")
            else:
                value = w["metrics"].get(m["name"], {}).get("median")
            if value is None:
                complete = False
                continue
            metrics[f"{wname}.{m['name']}" if prefix else m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": complete and out["runs_failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["runs_failed"],
        "metrics": metrics,
    }


# -- compare --------------------------------------------------------------------------
def verdict(spec: dict, parent: dict, change: dict) -> tuple:
    """Relative change (positive = worse) and better / worse / unchanged / unresolved."""
    base = abs(parent["median"]) or 1.0
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (change["median"] - parent["median"]) / base
    spread = max(parent["p75"] - parent["p25"], change["p75"] - change["p25"]) / base
    if spread > spec["bound"]:
        # too noisy to judge by medians, unless the two sides do not overlap
        if all(sign * (c - p) < 0 for c in change["samples"] for p in parent["samples"]):
            return worse_by, "better"
        if all(sign * (c - p) > 0 for c in change["samples"] for p in parent["samples"]):
            return worse_by, "worse"
        return worse_by, "unresolved"
    if worse_by > spec["bound"]:
        return worse_by, "worse"
    if -worse_by > (parent["p75"] - parent["p25"]) / base:
        return worse_by, "better"
    return worse_by, "unchanged"


def compare(parent_path: str, change_path: str, benchmark: dict) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    print(
        f"{'workload':<18} {'metric':<20} {'unit':<8} {'parent median [p25, p75]':>38} "
        f"{'change median [p25, p75]':>38} {'delta':>8} {'bound':>6}  verdict"
    )
    worse = 0
    for wname in parent["workloads"]:
        if wname not in change["workloads"]:
            print(f"{wname:<18} missing from {change_path}")
            continue
        pm, cm = parent["workloads"][wname]["metrics"], change["workloads"][wname]["metrics"]
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            if name not in pm or name not in cm:
                print(f"{wname:<18} {name:<20} missing")
                continue
            delta, word = verdict(spec, pm[name], cm[name])
            worse += word == "worse"
            p, c = pm[name], cm[name]
            print(
                f"{wname:<18} {name:<20} {spec['unit']:<8} "
                f"{p['median']:>12.6g} [{p['p25']:>10.5g}, {p['p75']:>10.5g}] "
                f"{c['median']:>12.6g} [{c['p25']:>10.5g}, {c['p75']:>10.5g}] "
                f"{delta:>+8.2%} {spec['bound']:>6.0%}  {word}"
            )
        if parent["seed"] == change["seed"] and any(
            pm[m]["median"] != cm[m]["median"] for m in SIM_METRICS if m in pm and m in cm
        ):
            print(f"{wname:<18} note: sim_* metrics differ on the same seed, so the simulated behaviour changed")
    return 1 if worse else 0


# -- entry point -----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="run seed passed to ScenarioSpec.build (default 0)")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--reps", type=int, help="untraced repetitions per workload (default 5)")
    budget.add_argument("--seconds", type=float, help="repeat each workload until its repetitions took this long")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced repetition per workload; the result line then holds the per-layer metrics",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write every sample, metric and check to this file (traces go next to it)"
    )
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two --json files")
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if args.compare:
        return compare(*args.compare, benchmark)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known) - set(TEST_WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.seconds is None and args.reps is None:
        args.reps = 5
    if (args.reps is not None and args.reps < 1) or (args.seconds is not None and args.seconds <= 0):
        parser.error("--reps and --seconds must be positive")

    runs = run_benchmark(workloads, args.seed, args.reps, args.seconds, bool(args.trace))
    out = report(runs, benchmark, args.seed, args)
    print_report(out, benchmark)
    # traces go next to the --json file, else to the git-ignored out/ directory
    write_traces(runs, args.seed, Path(args.json).resolve().parent if args.json else HERE / "out")
    line = result_line(out, benchmark, bool(args.trace))
    out["correct"] = line["correct"]
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
