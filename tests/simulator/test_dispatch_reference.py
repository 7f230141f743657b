"""The data-plane loops match the per-helper paths they replaced.

Both sides of the data plane run one pass per query, calling one home per
decision: a route is ``RoutingTable.choose``, a hop
``NetworkModel.sample_delay_s``, a sink's bookkeeping
``Request.record_sink_completion`` and a batch start
``SimWorker._maybe_start_batch``.  What is still inline: ``Frontend.submit``
builds the root query and pushes its hop onto the calendar itself;
``SimWorker.enqueue`` asks the drop policy only when it can act;
``_maybe_start_batch`` reads the batch duration from the assignment's table
and pushes the completion itself; ``SimWorker._dispatch`` draws Poisson
fan-out counts by NumPy's multiplication loop over the stream's uniforms,
asks the drop policy only about overrun or unrouted children, builds the
children directly and keeps the query-id counter and forwarded tally in
locals, pushing each hop onto the calendar itself.

This module keeps the paths they replaced as a test-only reference: a
``submit`` through ``record_arrival``, ``new_intermediate_query``,
``RoutingTable.choose`` and ``forward_query``; an ``enqueue`` that always
asks the drop policy and calls a ``_maybe_start_batch`` that reads the
variant's latency curve and schedules through ``call_at``; the per-child
helpers ``forward_query``, ``notify_sink`` and ``check_request``; a sink
loop calling ``notify_sink``; and a dispatch loop that samples each (query,
edge) pair through ``MultiplicativeContentModel.sample_children`` and asks
the drop policy about every child.  The only change to the copy is that the
submitted, rejected, forwarded and dropped counts live in the telemetry
counters alone.  All of it is monkeypatched in together.

Each builtin-scenario run with the reference patched in must match the run
of the data-plane loops bit for bit: the summary, the telemetry snapshot, the
engine's event count, the drop reasons, the query-id counter and the
simulation stream's final generator state.  Crafted runs cover what the
builtins reach rarely or never (a worker still loading, a straggler, a delay
spike, a network without jitter, interpolated partial batches, hedges at a
sink, and hops so slow that queries reach a worker late, under each drop
policy: the builtins run only two of them), and single crafted batches the rare dispatch branches (an unhosted
child target, a child with no planned route, hedges and timed-out requests
at a fan-out task), which must leave the same calendar, requests and stream.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import Controller, ControllerConfig
from repro.core.draws import DrawStream
from repro.core.dropping import POLICY_NAMES, DropAction, make_drop_policy
from repro.core.load_balancer import BackupEntry, RoutingEntry, RoutingPlan, RoutingTable
from repro.core.pipeline import Edge, Pipeline, Task
from repro.core.profiles import ModelVariant, ProfileRegistry
from repro.scenarios import get_scenario, scenario_names
from repro.simulator import ServingSimulation, SimulationConfig
from repro.simulator.frontend import Frontend
from repro.simulator.query import Request, RequestStatus
from repro.simulator.worker import SimWorker
from repro.workloads import constant_trace
from repro.workloads.content import MultiplicativeContentModel

DURATION_S = 15


# -- the reference path: arrivals -------------------------------------------------
def reference_submit(self):
    sim = self.sim
    now = sim.engine.now_s
    request = Request(self.total_submitted, now, self.slo_ms)
    self._window_arrivals += 1
    self._tele_requests.value += 1
    sim.metrics.record_arrival(now)

    root_task = sim.pipeline.root
    request.outstanding += 1
    query = sim.new_intermediate_query(request, root_task, now, accuracy_so_far=1.0)

    resilience = sim.resilience
    if resilience is not None and resilience.timeout_s is not None:
        resilience.arm_timeout(request)

    routing = sim.routing_plan
    entry = routing.frontend_table.choose(root_task, sim.rng) if routing is not None else None
    if entry is None:
        self._tele_rejected.value += 1
        sim.notify_drop(query, reason="no frontend route available")
        return request
    reference_forward_query(sim, query, entry.worker_id)
    return request


def reference_enqueue(self, query):
    now = self._engine.now_s
    if self.failed:
        self.sim.notify_drop(query, reason="worker failed")
        return
    assignment = self.assignment
    if assignment is None:
        self.sim.notify_drop(query, reason="worker has no assignment")
        return
    decision = self._on_arrival(
        not assignment.fanout,
        (query.request.deadline_s - now) * 1000.0,
        assignment.expected_latency_ms,
    )
    if decision.action is DropAction.DROP:
        self.sim.notify_drop(query, reason=decision.reason)
        return
    self.sim.task_arrivals[assignment.task] += 1
    query.worker_arrival_s = now
    self.queue.append(query)
    if self.batch is None:
        reference_maybe_start_batch(self)


def reference_maybe_start_batch(self):
    if self.batch is not None or not self.queue or self.assignment is None or self.failed:
        return
    engine = self._engine
    now = engine.now_s
    if now < self.available_at_s - 1e-12:
        return
    assignment = self.assignment
    queue = self.queue
    batch_count = len(queue)
    if batch_count <= assignment.batch_size:
        batch = list(queue)
        queue.clear()
    else:
        batch_count = assignment.batch_size
        popleft = queue.popleft
        batch = [popleft() for _ in range(batch_count)]
    duration_s = assignment.variant.execution_latency_ms(batch_count) / 1000.0
    if self.slowdown != 1.0:
        duration_s *= self.slowdown
    self.batch = batch
    engine.call_at(now + duration_s, self._complete_batch, batch)


# -- the reference path: finished batches --------------------------------------------
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
        reference_maybe_start_batch(self)


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
            request.outstanding += total_children
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


# -- patching the reference in ----------------------------------------------------------
class Counts:
    """How often each patched-in reference entry point ran, and the
    non-buffered integer draws (reroute tie-breaks) and ``sample_children``
    calls (the reference's fan-out draws; the inlined loop makes none)."""

    def __init__(self):
        self.submits = 0
        self.enqueues = 0
        self.batches = 0
        self.tie_breaks = 0
        self.samples = 0


def _count_draws(patch, counts):
    integers = DrawStream.integers
    sample_children = MultiplicativeContentModel.sample_children

    def counted_integers(self, high):
        counts.tie_breaks += 1
        return integers(self, high)

    def counted_sample_children(self, variant, edge, rng):
        counts.samples += 1
        return sample_children(self, variant, edge, rng)

    patch.setattr(DrawStream, "integers", counted_integers)
    patch.setattr(MultiplicativeContentModel, "sample_children", counted_sample_children)


def _patch_reference(patch, counts):
    def counted_submit(self):
        counts.submits += 1
        return reference_submit(self)

    def counted_enqueue(self, query):
        counts.enqueues += 1
        reference_enqueue(self, query)

    def counted_complete_batch(self, batch):
        counts.batches += 1
        reference_complete_batch(self, batch)

    patch.setattr(Frontend, "submit", counted_submit)
    patch.setattr(SimWorker, "enqueue", counted_enqueue)
    patch.setattr(SimWorker, "_maybe_start_batch", reference_maybe_start_batch)
    patch.setattr(SimWorker, "_complete_batch", counted_complete_batch)


def _observe(sim, summary) -> dict:
    """Everything a run must reproduce bit for bit."""
    return {
        "summary": dataclasses.asdict(summary),
        "telemetry": sim.telemetry.snapshot(),
        "events": sim.engine.events_processed,
        "drop_reasons": dict(sim.drop_reasons),
        "next_query_id": sim._next_query_id,
        "rng_state": sim.rng.generator.bit_generator.state,
    }


# -- whole runs of builtin scenarios ------------------------------------------------
def _run(monkeypatch, name, reference):
    """One 15 s run of a builtin scenario at seed 0, with the reference path
    patched in when ``reference`` is set."""
    counts = Counts()
    spec = get_scenario(name)
    spec = spec.with_overrides(trace_params={**spec.trace_params, "duration_s": DURATION_S})
    with monkeypatch.context() as patch:
        _count_draws(patch, counts)
        if reference:
            _patch_reference(patch, counts)
        sim = spec.build(seed=0)
        summary = sim.run()
    return _observe(sim, summary), counts


#: builtins whose pair of runs takes 3-5 s, nearly all of it cold MILP
#: solves: they run in the slow set, which CI runs too
SLOW_BUILTINS = ("traffic_azure", "traffic_azure_mmpp", "traffic_flash_crowd", "traffic_least_loaded")


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=pytest.mark.slow) if name in SLOW_BUILTINS else name for name in scenario_names()]
)
def test_inlined_loop_matches_the_reference_path(monkeypatch, name):
    inlined, inlined_counts = _run(monkeypatch, name, reference=False)
    reference, reference_counts = _run(monkeypatch, name, reference=True)
    _assert_same(inlined, reference)
    assert inlined_counts.tie_breaks == reference_counts.tie_breaks
    # the patches reached the calendar, and the inlined loop samples no
    # fan-out through the content model
    assert reference_counts.submits == inlined["summary"]["total_requests"] > 0
    assert reference_counts.enqueues > 0 and reference_counts.batches > 0
    assert inlined_counts.samples == 0
    telemetry = inlined["telemetry"]
    assert telemetry["worker.batches"] > 0
    if name in ("traffic_power_of_two", "social_twitter_bursty"):
        assert reference_counts.samples > 0
        assert telemetry["queries.dropped"] > 0  # on_forward dropped overruns
    if name == "traffic_power_of_two":
        assert inlined_counts.tie_breaks > 0  # the reroute tie-break ran
        assert telemetry["queries.rerouted"] > 0
    if name == "chaos_crash_restart":
        assert telemetry["resilience.failover_requeued"] > 0
    if name == "chaos_stragglers":
        assert telemetry["resilience.hedges"] > 0
        assert telemetry["resilience.hedge_absorbed"] > 0


# -- crafted runs ---------------------------------------------------------------------
#: what the builtins reach rarely or never, each as a short crafted run
RUN_CASES = ["loading", "straggler", "delay_spike", "zero_jitter", "latency_table", "hedged_sink"]
#: the loading case's worker finishes loading its model at this time
LOADED_AT_S = 0.4
#: the latency-table case's measured batch sizes (partial batches interpolate)
LATENCY_TABLE = {1: 3.0, 4: 7.5, 8: 11.0}


def _latency_table_pipeline():
    """The two-task chain of ``small_pipeline`` with table-profiled variants."""

    def variant(name, accuracy, factor):
        return ModelVariant(
            name=name,
            family=name.split("_")[0],
            accuracy=accuracy,
            base_latency_ms=2.0,
            per_item_latency_ms=1.0,
            multiplicative_factor=factor,
            batch_sizes=(1, 4, 8),
            load_time_ms=500.0,
            latency_table=LATENCY_TABLE,
        )

    registry = ProfileRegistry()
    registry.register("detect", variant("detect_big", 1.0, 2.0))
    registry.register("detect", variant("detect_small", 0.8, 1.6))
    registry.register("classify", variant("classify_big", 1.0, 1.0))
    registry.register("classify", variant("classify_small", 0.85, 1.0))
    return Pipeline(
        "small_table",
        [Task("detect"), Task("classify")],
        [Edge("detect", "classify", branch_ratio=1.0)],
        registry,
        latency_slo_ms=150.0,
    )


def _crafted_run(monkeypatch, pipeline, case, reference, drop_policy="opportunistic_rerouting"):
    """A 5 s run of ``pipeline`` under one crafted condition and drop
    policy: 60 qps, or 150 qps for hedges, which need a second sink replica
    to hedge to.

    Returns what must match, the patched-in reference's counts and the
    case's own evidence that its condition was reached."""
    counts = Counts()
    batch_counts = []
    config = SimulationConfig(
        num_workers=10,
        latency_slo_ms=150.0,
        seed=3,
        drop_policy=drop_policy,
        network_jitter_ms=0.0 if case == "zero_jitter" else 0.5,
        resilience={"hedging": True, "hedge_delay_ms": 4.0} if case == "hedged_sink" else None,
    )
    controller = Controller(
        pipeline,
        ControllerConfig(num_workers=10, latency_slo_ms=150.0, demand_quantum_qps=10.0, utilization_target=0.75),
    )
    with monkeypatch.context() as patch:
        _count_draws(patch, counts)
        if reference:
            _patch_reference(patch, counts)
        if case == "latency_table":
            execution_latency_ms = ModelVariant.execution_latency_ms

            def recorded(self, batch_count):
                batch_counts.append(batch_count)
                return execution_latency_ms(self, batch_count)

            patch.setattr(ModelVariant, "execution_latency_ms", recorded)
        qps = 150.0 if case == "hedged_sink" else 60.0
        sim = ServingSimulation(pipeline, controller, constant_trace(qps, 5), config)
        sim._bootstrap()
        evidence = None
        if case == "loading":
            # a root worker loading a new model while a batch of its old one
            # still executes, as after a task change: arrivals queue, and the
            # old batch's completion must not start them before the load ends
            worker = next(w for w in sim.cluster.workers if w.assignment is not None and w.assignment.task == "detect")
            worker.available_at_s = LOADED_AT_S
            sim.engine.call_at(LOADED_AT_S, SimWorker._maybe_start_batch, worker)
            request = Request(-1, 0.0, 150.0)
            request.outstanding += 1
            worker.batch = [sim.new_intermediate_query(request, "detect", 0.0, 1.0)]
            sim.engine.call_at(LOADED_AT_S / 2, worker._complete_batch, worker.batch)
        elif case == "straggler":
            for worker in sim.cluster.workers[::2]:
                worker.slowdown = 3.0
        elif case == "delay_spike":
            sim.network.delay_scale = 2.0
        elif case == "zero_jitter":
            # a constant hop, then a delay spike on it for the second half
            sim.engine.schedule(2.5, lambda: setattr(sim.network, "delay_scale", 2.0))
        elif case == "late_hops":
            # 80 ms hops from 2.5 s on: a child reaches its sink task with
            # less SLO left than one batch takes, or none at all
            sim.engine.schedule(2.5, lambda: setattr(sim.network, "delay_scale", 40.0))
        sim._schedule_workload()
        horizon = sim.trace.duration_s + sim.config.drain_s
        if case == "loading":
            sim.engine.run(until_s=LOADED_AT_S - 1e-3)
            evidence = len(worker.queue)
        sim.engine.run(until_s=horizon)
        sim.rng.sync()
        summary = sim.metrics.summary()
    if case == "latency_table":
        # the reference computes each batch's duration at its start; the
        # inlined loop reads the table the assignment derived
        evidence = sorted(set(batch_counts))
    return _observe(sim, summary), counts, evidence


@pytest.mark.parametrize("case", RUN_CASES)
def test_crafted_run_matches_the_reference_path(monkeypatch, small_pipeline, case):
    pipeline = _latency_table_pipeline() if case == "latency_table" else small_pipeline
    inlined, _, inlined_evidence = _crafted_run(monkeypatch, pipeline, case, reference=False)
    reference, counts, reference_evidence = _crafted_run(monkeypatch, pipeline, case, reference=True)
    _assert_same(inlined, reference)
    assert counts.submits > 0 and counts.enqueues > 0 and counts.batches > 0
    telemetry = inlined["telemetry"]
    assert telemetry["requests.completed"] > 0
    if case == "loading":
        assert inlined_evidence == reference_evidence > 1  # queued behind the load
    if case == "latency_table":
        partial = [n for n in reference_evidence if n not in LATENCY_TABLE]
        assert partial  # batches whose duration interpolates the table
    if case == "hedged_sink":
        assert telemetry["resilience.hedges"] > 0
        assert telemetry["resilience.hedge_wins"] > 0
        assert telemetry["resilience.hedge_absorbed"] > 0


@pytest.mark.parametrize("policy", sorted(POLICY_NAMES))
def test_late_hops_under_each_drop_policy_match_the_reference_path(monkeypatch, small_pipeline, policy):
    # the reference asks the policy on every arrival; the inlined enqueue
    # only when the remaining SLO is below the expected latency
    inlined, _, _ = _crafted_run(monkeypatch, small_pipeline, "late_hops", reference=False, drop_policy=policy)
    reference, counts, _ = _crafted_run(monkeypatch, small_pipeline, "late_hops", reference=True, drop_policy=policy)
    _assert_same(inlined, reference)
    assert counts.submits > 0 and counts.enqueues > 0 and counts.batches > 0
    assert inlined["telemetry"]["requests.completed"] > 0
    # every policy that can drop on arrival did so in this run
    decision = make_drop_policy(policy).on_arrival(True, -1.0, 1.0)
    if decision.action is DropAction.DROP:
        assert inlined["drop_reasons"].get(decision.reason, 0) > 0


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
        request.outstanding += 1
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
