"""One benchmark repetition in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition pays
the imports and starts with a cold solver cache, as a user running one
experiment does.  The last line of standard output is one JSON object.

    python3 child.py setup|rep WORKLOAD SEED [--trace] [--capacity]

``setup`` stops after the first ``ScenarioSpec.build``; ``rep`` simulates
every seed of the run (see :data:`SEEDS_PER_RUN`).  ``--capacity`` computes
the capacity-gain check after the timed part, ``--trace`` records layer
spans (see ``tracer.py``).

Set-up and run times are CPU seconds of this process (``time.process_time``):
on a shared host the wall clock also counts the time the process waited for
a core, which says nothing about the code.  The run's wall time is reported
too.  A pure-Python calibration loop runs before the imports and after the
timed part (for the set-up time), and a fixed MILP solve is sampled between
control ticks while the simulations run (for the run time); the parent uses
them to scale host times to a reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402  (benchmark-local module next to this file)

#: The controllers' MILP budget.  The scenarios give HiGHS a 3 s time limit
#: and a 0.2% gap.  Under a time limit, a solve that reaches it returns
#: whichever incumbent a loaded machine had found, so the simulated metrics
#: would vary between repetitions; a node budget makes every plan, and with
#: it every ``sim_*`` metric, a function of the seed alone.  At a 0.2% gap a
#: fig5 seed costs ~28 s.  Most solves end at the root node; the few that
#: branch take 3-10 s each at 200 nodes and ~1 s at 20, so the smaller budget
#: keeps their number, which varies with the seed, from dominating the run.
SOLVER_OPTIONS = {"time_limit": None, "node_limit": 20, "mip_rel_gap": 1e-2}

#: simulated seeds per run (default 1).  A run of these workloads simulates
#: seeds ``SEED*k .. SEED*k+k-1`` in one child and reports their total host
#: time and pooled service metrics.  fig5_proteus's SLO attainment (17%
#: coefficient of variation per seed) is too seed-dependent for one seed to
#: represent the workload.  fig5 and fig6 take two and three seeds so that a
#: run is long enough to average out more of a shared host's speed changes;
#: a second steady_dataplane seed did not make its runs measurably steadier.
SEEDS_PER_RUN = {"fig5_loki": 2, "fig6_loki": 3, "fig5_proteus": 10}

#: iterations of one calibration loop (~30 ms on the reference machine)
CALIBRATION_ITERATIONS = 200_000
#: full calibration loops before the imports and again after the timed part
SETUP_CALIBRATION_LOOPS = 3


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """CPU seconds a fixed pure-Python loop takes right now.

    The loop uses nothing from this repository, so it measures how fast the
    host runs the interpreter, not how fast the code under test is.
    """
    start = time.process_time()
    table = {}
    total = 0
    for i in range(iterations):
        table[i & 511] = i
        total += table.get((i * 7) & 511, 0) % 13
    return time.process_time() - start


def calibration_milp() -> dict:
    """``scipy.optimize.milp`` arguments of a fixed 100-variable integer program.

    HiGHS solves it at the root node in ~50 ms.  It uses nothing from this
    repository, so its time measures how fast the host runs a MILP solve.
    """
    import numpy as np
    from scipy import optimize

    rng = np.random.default_rng(7)
    used = rng.random((20, 100)) < 0.1
    weights = np.where(used, rng.integers(1, 10, size=(20, 100)), 0).astype(float)
    return {
        "c": -rng.uniform(1.0, 10.0, 100),
        "constraints": optimize.LinearConstraint(weights, -np.inf, weights.sum(axis=1) * 0.3),
        "integrality": np.ones(100),
        "bounds": optimize.Bounds(0, 3),
        "options": {"node_limit": 1, "mip_rel_gap": 0.01},
    }


class RunCalibration:
    """Host-speed samples taken while the simulations run.

    A shared host's speed drifts by +-15% within a minute, so a calibration
    taken before or after a 20 s run does not describe the run; samples
    spread through it do.  At the first control tick after every
    :attr:`INTERVAL_S` of host time, :func:`calibration_milp` is solved once
    and its CPU time recorded.  That time is reported apart, so the caller
    can leave it out of the run time.  The caller scales by the samples'
    mean, not their median: the run's time adds up its slow and fast
    stretches alike.  On repeated runs of one seed, scaling by the mean
    spread 3-6%, by the median 9-15%.

    A fixed MILP solve, not the pure-Python loop, because it slows down with
    a busy host the way these runs do, simulator and solver alike.  The loop
    slows down more: scaled by it, a run on a busy host read 10-20% faster
    than the same run on a quiet one.
    """

    INTERVAL_S = 1.0

    def __init__(self):
        self.samples = []
        self.spent_cpu_s = 0.0
        self.spent_wall_s = 0.0
        self._last = 0.0

    def install(self) -> None:
        from scipy import optimize

        from repro.control.engine import ControlPlaneEngine

        original = ControlPlaneEngine.step
        problem = calibration_milp()

        def step(engine, *args, **kwargs):
            wall = time.perf_counter()
            if wall - self._last >= self.INTERVAL_S:
                start = time.process_time()
                optimize.milp(**problem)
                sample = time.process_time() - start
                self.samples.append(sample)
                self.spent_cpu_s += sample
                self._last = time.perf_counter()
                self.spent_wall_s += self._last - wall
            return original(engine, *args, **kwargs)

        ControlPlaneEngine.step = step


def make_spec(workload: str):
    """The :class:`ScenarioSpec` behind a workload name.

    The fig5/fig6 workloads space arrivals evenly along their trace, where
    the builtin scenarios draw Poisson arrivals.  The controllers plan for
    the demand they observe, and HiGHS's time on the resulting MILPs is
    chaotic in it: under Poisson arrivals (and a 200-node budget) one fig5
    seed took 10-31 s, and ten single-seed runs spread by 36% (quartile
    distance over median).  Evenly spaced arrivals give every seed the same
    demand signal; the seed still draws the content fan-out, the network
    delays and the routing.

    fig5_loki also emits the rounded mean number of objects per frame
    (``content_mode="expected"``) instead of a Poisson count.  Under Poisson
    counts the seed moves the controllers' multiplicative-factor estimates,
    and with them HiGHS's time: ten seeds took 17-24 s each on one host.
    With the expected counts every seed solves nearly the same MILPs.
    fig5_proteus keeps Poisson counts: with expected counts its SLO
    attainment varied more from seed to seed, not less.
    """
    from repro.scenarios import ScenarioSpec, get_scenario

    solver = {"solver_options": dict(SOLVER_OPTIONS)}
    if workload == "fig5_loki":
        return get_scenario("traffic_azure").with_overrides(
            control_overrides=solver, arrival_process="uniform", content_mode="expected"
        )
    if workload == "fig6_loki":
        return get_scenario("social_twitter_bursty").with_overrides(
            control_overrides=solver, arrival_process="uniform"
        )
    if workload == "steady_dataplane":
        return ScenarioSpec(
            name="steady_dataplane",
            description="Constant demand at 0.7x the hardware-scaling capacity of a 100-worker cluster.",
            pipeline="traffic_analysis",
            trace="constant",
            trace_params={"qps": 1.0, "duration_s": 120},
            peak_over_hardware=0.7,
            num_workers=100,
            control_overrides=solver,
        )
    if workload == "fig5_proteus":
        return get_scenario("traffic_azure").with_overrides(
            system="proteus", control_overrides=solver, arrival_process="uniform"
        )
    if workload == "smoke":
        return get_scenario("smoke").with_overrides(trace_params={"qps": 30.0, "duration_s": 3})
    if workload == "smoke_raises":
        # Test workload: building it raises, so the harness must count a failed run.
        return get_scenario("smoke").with_overrides(system="no_such_system")
    raise KeyError(f"unknown workload {workload!r}")


def capacity_gain(spec) -> dict:
    """The paper's capacity gain of accuracy scaling on a 20-worker cluster.

    ``max_supported_demand()`` over the hardware-scaling-only capacity
    ``max_supported_demand(restrict_to_best=True)``.  It solves under the
    node budget of :data:`SOLVER_OPTIONS`: the default 3 s time limit is
    reached on the traffic pipeline, which would make the check depend on
    machine load.
    """
    from repro.core.allocation import AllocationProblem

    pipeline = spec.build_pipeline()
    problem = AllocationProblem(
        pipeline, num_workers=20, latency_slo_ms=spec.slo_ms, solver_options=dict(SOLVER_OPTIONS)
    )
    full = problem.max_supported_demand().max_demand_qps
    best_only = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    return {"pipeline": pipeline.name, "gain": full / best_only}


def seed_record(summary, sim) -> dict:
    """Service metrics, request accounting and work counts of one simulation."""
    submitted = sim.frontend.total_submitted
    telemetry = summary.telemetry
    control = sim.control_plane
    rm = getattr(control, "resource_manager", None)
    if rm is not None:  # Loki: the Resource Manager keeps its own plan cache
        lookups, hits = rm.stats.invocations, rm.stats.cache_hits
    else:  # baselines: the engine's fingerprinted plan cache
        lookups = int(telemetry.get("control.allocations", 0))
        hits = lookups - control.allocations_performed
    return {
        "sim_slo_attainment": summary.completed_requests / submitted if submitted else 0.0,
        "sim_mean_accuracy": summary.mean_accuracy,
        "sim_mean_workers": summary.mean_workers,
        "accounting": {
            "submitted": submitted,
            "completed": summary.completed_requests,
            "dropped": summary.dropped_requests,
            "late": summary.late_requests,
            # still queued or in flight at the horizon: the summary's
            # slo_violation_ratio leaves these out, attainment counts them
            "unfinished": submitted
            - summary.completed_requests
            - summary.dropped_requests
            - summary.late_requests,
            "collector_arrivals": summary.total_requests,
            "interval_completed": sum(i.completed for i in summary.intervals),
            "interval_dropped": sum(i.dropped for i in summary.intervals),
            "interval_late": sum(i.late for i in summary.intervals),
            "telemetry_completed": int(telemetry.get("requests.completed", 0)),
            "telemetry_dropped": int(telemetry.get("requests.dropped", 0)),
            "telemetry_late": int(telemetry.get("requests.late", 0)),
        },
        "counters": {
            "events": sim.engine.events_processed,
            "batches": int(telemetry.get("worker.batches", 0)),
            "batch_queries": int(telemetry.get("worker.processed_queries", 0)),
            "queries_forwarded": sim.forwarded_queries,
            "queries_dropped": sim.dropped_queries,
            "plan_changes": int(telemetry.get("control.plan_changes", 0)),
            "plan_cache_lookups": lookups,
            "plan_cache_hits": hits,
        },
    }


def pooled(records: list) -> dict:
    """One run's metrics over its seeds: attainment pooled over all requests,
    accuracy and workers averaged, counts summed."""
    accounting = {key: sum(r["accounting"][key] for r in records) for key in records[0]["accounting"]}
    return {
        "sim_slo_attainment": accounting["completed"] / accounting["submitted"] if accounting["submitted"] else 0.0,
        "sim_mean_accuracy": statistics.fmean(r["sim_mean_accuracy"] for r in records),
        "sim_mean_workers": statistics.fmean(r["sim_mean_workers"] for r in records),
        "accounting": accounting,
        "counters": {key: sum(r["counters"][key] for r in records) for key in records[0]["counters"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "rep"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--capacity", action="store_true")
    args = parser.parse_args(argv)

    calibration = [calibration_loop() for _ in range(SETUP_CALIBRATION_LOOPS)]
    started = time.process_time()
    import repro.scenarios  # noqa: F401  (the import cost is part of setup_s)
    from repro.solver import default_cache

    imported = time.process_time()
    tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}") if args.trace else None
    if tracer is not None:
        tracer.install()
    per_run = SEEDS_PER_RUN.get(args.workload, 1)
    seeds = [args.seed * per_run + i for i in range(per_run)]
    spec = make_spec(args.workload)
    sim = spec.build(seeds[0])
    built = time.process_time()
    result = {
        "sim_seeds": seeds,
        "setup_s": built - started,
        "import_s": imported - started,
        "build_s": built - imported,
    }
    if args.mode == "rep":
        # the traced rep keeps its spans free of calibration samples
        run_calibration = RunCalibration() if tracer is None else None
        if run_calibration is not None:
            run_calibration.install()
        run_wall_s = run_cpu_s = 0.0
        records = []
        for index, seed in enumerate(seeds):
            if index:
                # free the previous simulation (it holds reference cycles)
                # so peak RSS is that of one simulation, and start every
                # seed from the same cold solver cache
                sim = summary = None
                gc.collect()
                default_cache.clear()
                sim = spec.build(seed)
            start, cpu_start = time.perf_counter(), time.process_time()
            summary = sim.run()
            run_wall_s += time.perf_counter() - start
            run_cpu_s += time.process_time() - cpu_start
            records.append(seed_record(summary, sim))
        if run_calibration is not None:
            run_wall_s -= run_calibration.spent_wall_s
            run_cpu_s -= run_calibration.spent_cpu_s
            result["run_calibration_s"] = statistics.fmean(run_calibration.samples)
        result["run_wall_s"] = run_wall_s
        result["run_cpu_s"] = run_cpu_s
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(pooled(records))
        result["per_seed"] = [
            {"seed": seed, **{key: r[key] for key in ("sim_slo_attainment", "sim_mean_accuracy", "sim_mean_workers")}}
            for seed, r in zip(seeds, records)
        ]
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    calibration += [calibration_loop() for _ in range(SETUP_CALIBRATION_LOOPS)]
    result["calibration_s"] = statistics.fmean(calibration)
    if args.capacity:
        result["capacity"] = capacity_gain(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
