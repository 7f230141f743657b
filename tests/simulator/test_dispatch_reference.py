"""The inlined batch-completion loop matches the per-helper path it replaced.

``SimWorker._complete_batch`` and ``SimWorker._dispatch`` do each query's
sink, fan-out, routing, drop decision and network hop inline.  This module
keeps the path they replaced as a test-only reference: the per-child
helpers ``forward_query``, ``notify_sink`` and ``check_request``, a sink
loop calling ``notify_sink``, and a dispatch loop that samples each
(query, edge) pair through ``MultiplicativeContentModel.sample_children``
and asks the drop policy about every child.  The only change to the copy is
that the forwarded and dropped counts live in the telemetry counters alone.

Each builtin-scenario run with the reference monkeypatched in must match
the run of the inlined loop bit for bit: the summary, the telemetry
snapshot, the engine's event count, the drop reasons, the query-id counter
and the simulation stream's final generator state.  Single crafted batches
cover the branches the scenarios reach rarely or never (an unhosted child
target, a child with no planned route, hedges and timed-out requests at a
fan-out task) and must leave the same calendar, requests and stream.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import Controller, ControllerConfig
from repro.core.draws import DrawStream
from repro.core.dropping import DropAction
from repro.core.load_balancer import BackupEntry, RoutingEntry, RoutingPlan, RoutingTable
from repro.scenarios import get_scenario
from repro.simulator import ServingSimulation, SimulationConfig
from repro.simulator.query import Request, RequestStatus
from repro.simulator.worker import SimWorker
from repro.workloads import constant_trace
from repro.workloads.content import MultiplicativeContentModel

DURATION_S = 15


# -- the reference path --------------------------------------------------------
def reference_forward_query(sim, query, logical_worker_id):
    worker = sim.cluster.resolve(logical_worker_id)
    if worker is None:
        sim.notify_drop(query, reason=f"logical worker {logical_worker_id} not hosted")
        return
    sim._tele_forwarded.value += 1
    delay = sim.network.sample_delay_s(sim.rng)
    engine = sim.engine
    engine.call_at(engine.now_s + delay, worker.enqueue, query)
    resilience = sim.resilience
    if resilience is not None and resilience.hedging:
        resilience.maybe_arm_hedge(query, logical_worker_id)


def reference_notify_sink(sim, query):
    resilience = sim.resilience
    if resilience is not None and resilience.absorb_sink(query):
        return
    delay = sim.network.sample_delay_s(sim.rng)
    completion_time = sim.engine.now_s + delay
    request = query.request
    request.record_sink_completion(completion_time, query.accuracy_so_far)
    if request.status is not RequestStatus.IN_FLIGHT:
        sim.metrics.record_request_finished(request)


def reference_check_request(sim, request):
    if request.is_finished:
        resilience = sim.resilience
        if resilience is not None and resilience.absorbed(request):
            return
        sim.metrics.record_request_finished(request)


def reference_complete_batch(self, batch):
    if batch is not self.batch:
        return
    sim = self.sim
    assignment = self.assignment
    self.batch = None
    if assignment is None:  # pragma: no cover - defensive, as in the worker
        for query in batch:
            sim.notify_drop(query, reason="assignment removed mid-batch")
        return
    now = self._engine.now_s
    sim._tele_batches.value += 1
    sim._tele_batch_queries.value += len(batch)
    child_edges = tuple(sim.pipeline.children(assignment.task))
    if child_edges:
        reference_dispatch(self, batch, assignment, child_edges, now)
    else:
        accuracy = assignment.variant.accuracy
        for query in batch:
            query.accuracy_so_far *= accuracy
            reference_notify_sink(sim, query)
    if self.queue:
        self._maybe_start_batch()


def reference_dispatch(self, batch, assignment, child_edges, now_s):
    sim = self.sim
    rng = sim.rng
    sample_children = sim.content_model.sample_children
    variant = assignment.variant
    accuracy = variant.accuracy
    plan = sim.routing_plan
    table = plan.table_for(assignment.logical_id) if plan is not None else None
    choose = table.choose if table is not None else None
    on_forward = sim.drop_policy.on_forward
    budget_ms = assignment.latency_budget_ms
    for query in batch:
        query.accuracy_so_far *= accuracy
        counts = []
        total_children = 0
        for edge in child_edges:
            count = sample_children(variant, edge, rng)
            counts.append(count)
            total_children += count
        self.factor_observation_sum += total_children
        self.factor_observation_count += 1
        request = query.request
        if total_children:
            request.add_outstanding(total_children)
            time_in_task_ms = (now_s - query.worker_arrival_s) * 1000.0
            remaining_slo_ms = (request.deadline_s - now_s) * 1000.0
            path_accuracy = query.accuracy_so_far
            for edge, count in zip(child_edges, counts):
                if not count:
                    continue
                task = edge.child
                backups = plan.backups_for(task) if plan is not None else ()
                for _ in range(count):
                    child = sim.new_intermediate_query(request, task, now_s, path_accuracy)
                    planned = choose(task, rng) if choose is not None else None
                    decision = on_forward(time_in_task_ms, budget_ms, planned, backups, remaining_slo_ms, rng)
                    action = decision.action
                    if action is DropAction.DROP:
                        sim.notify_drop(child, reason=decision.reason)
                        continue
                    if action is DropAction.REROUTE and decision.target is not None:
                        sim._tele_rerouted.value += 1
                        target_id = decision.target.worker_id
                    elif planned is not None:
                        target_id = planned.worker_id
                    elif backups:
                        target_id = backups[0].worker_id
                    else:
                        sim.notify_drop(child, reason="no downstream worker available")
                        continue
                    reference_forward_query(sim, child, target_id)
        request.record_internal_completion(now_s)
        reference_check_request(sim, request)


# -- comparison ------------------------------------------------------------------
def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN, recursing into containers."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _assert_same(inlined: dict, reference: dict) -> None:
    assert inlined.keys() == reference.keys()
    for key in inlined:
        if key == "summary":  # field by field, for a readable failure
            for field in inlined[key]:
                assert _same(inlined[key][field], reference[key][field]), f"summary.{field}"
        else:
            assert _same(inlined[key], reference[key]), key


# -- whole runs of builtin scenarios ------------------------------------------------
def _run(monkeypatch, name, reference):
    """One 15 s run of a builtin scenario at seed 0, with the reference path
    patched in when ``reference`` is set.  Returns what must match, the
    number of non-buffered integer draws (reroute tie-breaks), the number of
    batches the reference completed, and the number of ``sample_children``
    calls (the reference's fan-out draws; the inlined loop makes none)."""
    tie_breaks = []
    samples = []
    reference_batches = []
    integers = DrawStream.integers
    sample_children = MultiplicativeContentModel.sample_children

    def counted_integers(self, high):
        tie_breaks.append(high)
        return integers(self, high)

    def counted_sample_children(self, variant, edge, rng):
        samples.append(edge.child)
        return sample_children(self, variant, edge, rng)

    def counted_reference(self, batch):
        reference_batches.append(len(batch))
        reference_complete_batch(self, batch)

    spec = get_scenario(name)
    spec = spec.with_overrides(trace_params={**spec.trace_params, "duration_s": DURATION_S})
    with monkeypatch.context() as patch:
        patch.setattr(DrawStream, "integers", counted_integers)
        patch.setattr(MultiplicativeContentModel, "sample_children", counted_sample_children)
        if reference:
            patch.setattr(SimWorker, "_complete_batch", counted_reference)
        sim = spec.build(seed=0)
        summary = sim.run()
    observed = {
        "summary": dataclasses.asdict(summary),
        "telemetry": sim.telemetry.snapshot(),
        "events": sim.engine.events_processed,
        "drop_reasons": dict(sim.drop_reasons),
        "next_query_id": sim._next_query_id,
        "rng_state": sim.rng.generator.bit_generator.state,
    }
    return observed, len(tie_breaks), len(reference_batches), len(samples)


@pytest.mark.parametrize(
    "name",
    [
        "smoke",
        "smoke_failure",
        "traffic_power_of_two",
        "chaos_crash_restart",
        "chaos_stragglers",
        "social_twitter_bursty",
    ],
)
def test_inlined_loop_matches_the_reference_path(monkeypatch, name):
    inlined, inlined_tie_breaks, _, inlined_samples = _run(monkeypatch, name, reference=False)
    reference, reference_tie_breaks, reference_batches, reference_samples = _run(monkeypatch, name, reference=True)
    _assert_same(inlined, reference)
    assert inlined_tie_breaks == reference_tie_breaks
    # the patch reached the calendar, and the inlined loop samples no fan-out
    # through the content model
    assert reference_batches > 0 and inlined_samples == 0
    telemetry = inlined["telemetry"]
    assert telemetry["worker.batches"] > 0
    if name in ("traffic_power_of_two", "social_twitter_bursty"):
        assert reference_samples > 0
        assert telemetry["queries.dropped"] > 0  # on_forward dropped overruns
    if name == "traffic_power_of_two":
        assert inlined_tie_breaks > 0  # the reroute tie-break ran
        assert telemetry["queries.rerouted"] > 0
    if name == "chaos_crash_restart":
        assert telemetry["resilience.failover_requeued"] > 0
    if name == "chaos_stragglers":
        assert telemetry["resilience.hedges"] > 0
        assert telemetry["resilience.hedge_absorbed"] > 0


# -- single crafted batches ---------------------------------------------------------
#: resilience knobs for the batch case that hedges, retries and times out
RESILIENCE = {"max_retries": 1, "hedging": True, "hedge_delay_ms": 5.0, "request_timeout_ms": 120.0}
#: how long ago each query of the batch reached the detect worker: on time,
#: overrun, on time, overrun (the budget is a few ms)
AGES_S = (0.0, 0.1, 0.001, 0.12)
BATCH_CASES = ["on_time", "overrun", "unhosted", "no_route", "resilience"]


def _describe(obj):
    """A calendar entry's action or argument, comparable across two runs."""
    if isinstance(obj, SimWorker):
        return ("worker", obj.physical_id)
    if hasattr(obj, "query_id"):
        return ("query", obj.query_id, obj.task, obj.request.request_id, obj.accuracy_so_far)
    if isinstance(obj, Request):
        return ("request", obj.request_id)
    owner = getattr(obj, "__self__", None)
    if owner is not None:
        return (obj.__func__.__qualname__, _describe(owner))
    return getattr(obj, "__qualname__", type(obj).__name__)


def _complete_one_batch(pipeline, case, reference):
    """Complete one crafted batch at a detect worker of ``pipeline`` and
    return everything it changed."""
    config = SimulationConfig(
        num_workers=10, latency_slo_ms=150.0, seed=1, resilience=RESILIENCE if case == "resilience" else None
    )
    controller = Controller(
        pipeline,
        ControllerConfig(num_workers=10, latency_slo_ms=150.0, demand_quantum_qps=10.0, utilization_target=0.75),
    )
    sim = ServingSimulation(pipeline, controller, constant_trace(40.0, 5), config)
    sim._bootstrap()
    worker = next(w for w in sim.cluster.workers if w.assignment is not None and w.assignment.task == "detect")
    assignment = worker.assignment
    hosted = sorted(lid for lid, w in sim.cluster.logical_map.items() if w.assignment.task == "classify")
    table = RoutingTable()
    backups = ()
    if case in ("on_time", "overrun"):
        table.add("classify", RoutingEntry(hosted[0], 1.0, accuracy=1.0, latency_ms=5.0))
    elif case == "unhosted":
        table.add("classify", RoutingEntry("not-hosted", 1.0, accuracy=1.0, latency_ms=5.0))
    elif case == "resilience":
        table.add("classify", RoutingEntry(hosted[0], 0.5, accuracy=1.0, latency_ms=5.0))
        table.add("classify", RoutingEntry("not-hosted", 0.5, accuracy=1.0, latency_ms=5.0))
    if case in ("overrun", "no_route"):
        # two equally accurate spare workers: a reroute breaks the tie with a draw
        backups = (
            BackupEntry(hosted[0], "classify", "classify_small", 0.85, 5.0, 50.0),
            BackupEntry(hosted[-1], "classify", "classify_small", 0.85, 5.0, 50.0),
        )
    if case == "overrun":
        # the planned worker is too slow for what the overrun queries have left
        table = RoutingTable()
        table.add("classify", RoutingEntry(hosted[0], 1.0, accuracy=1.0, latency_ms=60.0))
    sim.routing_plan = RoutingPlan(
        frontend_table=RoutingTable(),
        worker_tables={assignment.logical_id: table},
        backup_tables={"classify": backups},
    )
    now = sim.engine.now_s
    batch = []
    for i, age in enumerate(AGES_S):
        request = Request(i, now - age, 150.0)
        request.add_outstanding(1)
        query = sim.new_intermediate_query(request, "detect", now - age, 1.0)
        batch.append(query)
    if case == "resilience":
        sim.resilience._fire_timeout(batch[1].request)  # its stragglers are absorbed
    calendar_before = len(sim.engine.queue)
    worker.batch = batch  # executing, as _maybe_start_batch leaves it
    if reference:
        reference_complete_batch(worker, batch)
    else:
        worker._complete_batch(batch)
    entries = sorted(sim.engine.queue._heap, key=lambda entry: entry[1])[calendar_before:]
    return {
        "calendar": [(time_s, _describe(action), _describe(arg)) for time_s, _, action, arg in entries],
        "requests": [
            (q.request.outstanding, q.request.status, q.request.drops, q.request.completion_s) for q in batch
        ],
        "telemetry": sim.telemetry.snapshot(),
        "drop_reasons": dict(sim.drop_reasons),
        "next_query_id": sim._next_query_id,
        "observations": (worker.factor_observation_sum, worker.factor_observation_count),
        "rng_state": sim.rng.generator.bit_generator.state,
    }


@pytest.mark.parametrize("case", BATCH_CASES)
def test_one_batch_matches_the_reference_path(small_pipeline, case):
    inlined = _complete_one_batch(small_pipeline, case, reference=False)
    reference = _complete_one_batch(small_pipeline, case, reference=True)
    _assert_same(inlined, reference)
    telemetry = inlined["telemetry"]
    reasons = inlined["drop_reasons"]
    if case != "unhosted":
        assert inlined["calendar"]  # something was sent on
    if case == "overrun":
        assert telemetry["queries.rerouted"] > 0
    if case == "unhosted":
        assert reasons and all(reason == "logical worker not-hosted not hosted" for reason in reasons)
    if case == "no_route":
        assert telemetry["queries.forwarded"] > 0  # to the first backup
    if case == "resilience":
        assert telemetry["resilience.retries"] > 0
        assert telemetry["resilience.timeouts"] == 1
