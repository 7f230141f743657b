"""Outside-in layer spans for the end-to-end benchmark.

:class:`Tracer` wraps public calls of each layer from the benchmark's own
file, so nothing under ``src/`` changes.  A span is ``[id, parent id, name,
start s, end s, args]``; all spans of one run share the tracer's ``run_id``.
Spans stay in memory until the run ends.  The functions below turn one run's
spans into per-layer metrics, a printable layer table and Chrome trace-event
JSON (it opens in Perfetto).

This module imports nothing from ``repro`` at import time, so the parent
process can analyse spans without paying for the simulator's imports.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Dict, List

#: ``(module, attribute path)`` of every wrapped call.  The span name is the
#: attribute path.  ``solve`` is wrapped *as bound in* the two modules that
#: call it: patching ``repro.solver.solve`` would miss their references.
TARGETS = (
    ("repro.scenarios.spec", "ScenarioSpec.build"),
    ("repro.simulator.runner", "ServingSimulation.run"),
    ("repro.simulator.engine", "SimulationEngine.run"),
    ("repro.control.engine", "ControlPlaneEngine.step"),
    ("repro.control.policies", "AllocationPolicy.run_allocation"),
    ("repro.core.load_balancer", "LoadBalancer.refresh"),
    ("repro.core.allocation", "AllocationProblem.solve_hardware_scaling"),
    ("repro.core.allocation", "AllocationProblem.solve_accuracy_scaling"),
    ("repro.core.allocation", "AllocationProblem.max_supported_demand"),
    ("repro.core.allocation", "solve"),
    ("repro.baselines.proteus", "solve"),
    ("scipy.optimize", "milp"),
    ("repro.simulator.cluster", "Cluster.apply_plan"),
    ("repro.workloads.arrivals", "ArrivalProcess.sample_trace"),
    ("repro.simulator.metrics", "MetricsCollector.summary"),
    ("repro.telemetry.registry", "TelemetryRegistry.snapshot"),
)

#: layer of each span name; ``ServingSimulation.run`` is the root whose self
#: time is the unattributed residual
LAYER = {
    "ScenarioSpec.build": "setup",
    "ServingSimulation.run": "unattributed",
    "SimulationEngine.run": "simulator",
    "Cluster.apply_plan": "simulator",
    "ControlPlaneEngine.step": "control",
    "AllocationPolicy.run_allocation": "control",
    "LoadBalancer.refresh": "control",
    "AllocationProblem.solve_hardware_scaling": "core",
    "AllocationProblem.solve_accuracy_scaling": "core",
    "AllocationProblem.max_supported_demand": "core",
    "solve": "solver",
    "milp": "solver",
    "ArrivalProcess.sample_trace": "workloads",
    "MetricsCollector.summary": "metrics",
    "TelemetryRegistry.snapshot": "metrics",
}

#: layers in the order the table prints them
LAYERS = ("solver", "core", "control", "simulator", "workloads", "metrics", "unattributed")


def _note_build(args, kwargs, result):
    return {"seed": args[1] if len(args) > 1 else kwargs.get("seed", 0)}


def _note_solve(args, kwargs, solution):
    model = args[0] if args else kwargs["model"]
    return {"status": solution.status, "cache": solution.info.get("cache"), "vars": model.num_vars}


def _note_milp(args, kwargs, result):
    return {"status": int(result.status), "nodes": int(getattr(result, "mip_node_count", 0) or 0)}


#: span arguments recorded from a call's inputs and result
NOTES = {"ScenarioSpec.build": _note_build, "solve": _note_solve, "milp": _note_milp}

_MISSING = object()


class Tracer:
    """Records a span around each call in :data:`TARGETS` while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            saved = owner.__dict__.get(attr, _MISSING)
            self._patches.append((owner, attr, saved))
            setattr(owner, attr, self._wrap(path, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


# -- analysis (parent side) ---------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[4] - span[3]
    return own


def run_subtree(spans: List[list]) -> List[list]:
    """The ``ServingSimulation.run`` spans (one per simulated seed) and everything under them."""
    inside = {span[0] for span in spans if span[2] == "ServingSimulation.run"}
    if not inside:
        raise ValueError("no ServingSimulation.run span")
    for span in spans:  # parents always precede their children
        if span[1] in inside:
            inside.add(span[0])
    return [span for span in spans if span[0] in inside]


def check_nesting(spans: List[list]) -> List[str]:
    """Problems with the span tree: children outside parents, negative self times."""
    problems = []
    for span in spans:
        if span[4] < span[3]:
            problems.append(f"span {span[0]} {span[2]} ends before it starts")
        if span[1] >= 0:
            parent = spans[span[1]]
            if span[3] < parent[3] or span[4] > parent[4]:
                problems.append(f"span {span[0]} {span[2]} escapes its parent {parent[2]}")
    for span, own in zip(spans, self_times(spans)):
        if own < -1e-9:
            problems.append(f"span {span[0]} {span[2]} has negative self time {own}")
    return problems


def _p90_ms(durations: List[float]) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=10, method="inclusive")[-1] * 1000.0


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(
    spans: List[list], counters: Dict[str, float], setup: Dict[str, float], run_wall_s: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, in its own host seconds.

    Names are as in BENCHMARK.json; ``trace.overhead_s`` needs the untraced
    repetitions, so the caller adds it.
    """
    inside = run_subtree(spans)
    own = dict(zip((span[0] for span in spans), self_times(spans)))
    by_name: Dict[str, List[list]] = {}
    for span in inside:
        by_name.setdefault(span[2], []).append(span)

    def total(name: str) -> float:
        return sum(span[4] - span[3] for span in by_name.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(own[span[0]] for name in names for span in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    solves = by_name.get("solve", [])
    steps = [span[4] - span[3] for span in by_name.get("ControlPlaneEngine.step", [])]
    dataplane = self_total("SimulationEngine.run")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in inside:
        layer_self[LAYER[span[2]]] += own[span[0]]
    layer_self["unattributed"] += run_wall_s - total("ServingSimulation.run")
    return {
        "solver.solve.count": len(solves),
        "solver.solve.total_s": total("solve"),
        "solver.solve.p90_ms": _p90_ms([span[4] - span[3] for span in solves]),
        "solver.highs.total_s": total("milp"),
        "solver.highs.nodes": sum(span[5]["nodes"] for span in by_name.get("milp", ())),
        "solver.assembly_self_s": self_total("solve"),
        "solver.useful_ratio": _ratio(sum(span[5]["status"] == "optimal" for span in solves), len(solves)),
        "solver.cache.hit_ratio": _ratio(sum(span[5]["cache"] == "hit" for span in solves), len(solves)),
        "solver.vars.mean": _ratio(sum(span[5]["vars"] for span in solves), len(solves)),
        "core.hw_scaling.count": count("AllocationProblem.solve_hardware_scaling"),
        "core.hw_scaling.total_s": total("AllocationProblem.solve_hardware_scaling"),
        "core.acc_scaling.count": count("AllocationProblem.solve_accuracy_scaling"),
        "core.acc_scaling.total_s": total("AllocationProblem.solve_accuracy_scaling"),
        "core.model_self_s": layer_self["core"],
        "core.plan_cache.hit_ratio": _ratio(counters["plan_cache_hits"], counters["plan_cache_lookups"]),
        "control.step.count": len(steps),
        "control.step.total_s": sum(steps),
        "control.step.p90_ms": _p90_ms(steps),
        "control.step.max_ms": max(steps, default=0.0) * 1000.0,
        "control.self_s": layer_self["control"],
        "control.allocate.count": count("AllocationPolicy.run_allocation"),
        "control.allocate.total_s": total("AllocationPolicy.run_allocation"),
        "control.routing_refresh.count": count("LoadBalancer.refresh"),
        "control.routing_refresh.total_s": total("LoadBalancer.refresh"),
        "control.plan_changes": counters["plan_changes"],
        "simulator.dataplane_self_s": dataplane,
        "simulator.events": counters["events"],
        "simulator.events_per_s": _ratio(counters["events"], dataplane),
        "simulator.apply_plan.count": count("Cluster.apply_plan"),
        "simulator.apply_plan.total_s": total("Cluster.apply_plan"),
        "simulator.mean_batch_size": _ratio(counters["batch_queries"], counters["batches"]),
        "simulator.queries_forwarded": counters["queries_forwarded"],
        "simulator.queries_dropped": counters["queries_dropped"],
        "workloads.sample_trace_s": layer_self["workloads"],
        "metrics.summary_s": layer_self["metrics"],
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "unattributed_s": layer_self["unattributed"],
    }


def layer_self_times(metrics: Dict[str, float]) -> Dict[str, float]:
    """Self time of each layer in :data:`LAYERS`; they sum to the traced ``run_wall_s``."""
    return {
        "solver": metrics["solver.highs.total_s"] + metrics["solver.assembly_self_s"],
        "core": metrics["core.model_self_s"],
        "control": metrics["control.self_s"],
        "simulator": metrics["simulator.dataplane_self_s"] + metrics["simulator.apply_plan.total_s"],
        "workloads": metrics["workloads.sample_trace_s"],
        "metrics": metrics["metrics.summary_s"],
        "unattributed": metrics["unattributed_s"],
    }


def chrome_trace(spans: List[list], run_id: str) -> dict:
    """Chrome trace-event JSON (complete events, microseconds) for Perfetto."""
    origin = min((span[3] for span in spans), default=0.0)
    events = [
        {
            "name": span[2],
            "cat": LAYER[span[2]],
            "ph": "X",
            "ts": (span[3] - origin) * 1e6,
            "dur": (span[4] - span[3]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span_id": span[0], "parent_id": span[1], **(span[5] or {})},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run_id": run_id}}
