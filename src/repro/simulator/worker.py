"""Simulated workers: queueing, batch formation, execution and forwarding.

Each worker hosts one model-variant instance (its *assignment*).  Queries
queue at the worker; whenever the worker is idle and its model is loaded it
takes up to ``batch_size`` queries from the queue and executes them as one
batch, whose duration comes from the variant's profiled latency curve.  On
batch completion every query is either returned to the Frontend (sink tasks)
or expanded into intermediate queries for the downstream tasks, subject to the
configured early-dropping policy and routing tables (Section 5).

Workers also record the multiplicative factors they observe and report them to
the Controller through heartbeats, closing the estimation loop of Section 4.2.

All worker activity is driven by typed events (:class:`ModelReadyEvent`,
:class:`SwapCompleteEvent`, :class:`BatchCompleteEvent`) rather than closures;
pending swap and in-flight batch events are tracked so reassignments and fault
injection can cancel them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.core.dropping import DropAction
from repro.core.pipeline import Edge
from repro.core.profiles import ModelVariant
from repro.simulator.events import BatchCompleteEvent, ModelReadyEvent, SwapCompleteEvent
from repro.simulator.query import IntermediateQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.simulator.runner import ServingSimulation

__all__ = ["WorkerAssignment", "SimWorker"]


@dataclass(frozen=True)
class WorkerAssignment:
    """What a worker is currently hosting (one row of the allocation plan).

    ``expected_latency_ms`` is the profiled execution time of one batch at the
    configured batch size; ``latency_budget_ms`` additionally includes the
    waiting-time allowance and is what the early-dropping policies compare the
    observed time-in-task against.
    """

    logical_id: str
    task: str
    variant: ModelVariant
    batch_size: int
    latency_budget_ms: float
    expected_latency_ms: float
    #: the task's outgoing pipeline edges, precomputed at plan application so
    #: the per-query hot paths (enqueue, batch-complete dispatch) do not
    #: re-list them; ``None`` falls back to a live pipeline lookup
    child_edges: Optional[Tuple[Edge, ...]] = None


class SimWorker:
    """One physical worker (GPU) in the simulated cluster."""

    __slots__ = (
        "physical_id",
        "sim",
        "assignment",
        "pending_assignment",
        "queue",
        "busy",
        "available_at_s",
        "active",
        "failed",
        "fail_epoch",
        "slowdown",
        "processed_queries",
        "processed_batches",
        "busy_time_s",
        "factor_observation_sum",
        "factor_observation_count",
        "_pending_swap_event",
        "_batch_event",
        "_engine",
        "_on_arrival",
    )

    def __init__(self, physical_id: str, sim: "ServingSimulation"):
        self.physical_id = physical_id
        self.sim = sim
        #: hot-path caches, bound once: a run's engine and drop policy are
        #: fixed for the simulation's lifetime, so enqueue skips two
        #: attribute hops per delivered query.  Stub sims (unit tests) may
        #: lack either — enqueue falls back to a live lookup when the cached
        #: binding is None.
        self._engine = getattr(sim, "engine", None)
        policy = getattr(sim, "drop_policy", None)
        self._on_arrival = policy.on_arrival if policy is not None else None
        self.assignment: Optional[WorkerAssignment] = None
        #: new same-task assignment whose variant is still loading; the worker
        #: keeps serving with the old variant until the load completes
        self.pending_assignment: Optional[WorkerAssignment] = None
        self.queue: Deque[IntermediateQuery] = deque()
        self.busy = False
        #: time at which the currently loading model becomes available
        self.available_at_s = 0.0
        self.active = False
        #: fault-injected hard failure; the worker serves nothing until recovered
        self.failed = False
        #: bumped on every fail(); recovery closures compare it so a stale
        #: recovery never resurrects a worker a *later* fault took down
        self.fail_epoch = 0
        #: straggler-fault service-rate multiplier (1.0 = nominal); batches
        #: run ``slowdown``× longer while it is raised
        self.slowdown = 1.0
        self.processed_queries = 0
        self.processed_batches = 0
        self.busy_time_s = 0.0
        self.factor_observation_sum = 0.0
        self.factor_observation_count = 0
        #: live SwapCompleteEvent for the pending assignment (cancelled when a
        #: newer reassignment supersedes it)
        self._pending_swap_event: Optional[SwapCompleteEvent] = None
        #: live BatchCompleteEvent for the batch currently executing
        self._batch_event: Optional[BatchCompleteEvent] = None

    # -- assignment ------------------------------------------------------------
    def _cancel_pending_swap(self) -> None:
        if self._pending_swap_event is not None:
            self._pending_swap_event.cancel()
            self._pending_swap_event = None

    def assign(self, assignment: Optional[WorkerAssignment], now_s: float) -> None:
        """Apply a (possibly new) assignment.

        Loading a different variant takes the variant's load time.  When the
        new assignment serves the *same task* with a different variant the
        worker keeps serving queued queries with the old variant while the new
        one loads (make-before-break); when the task changes the worker goes
        offline for the load and any queued queries of the old task are
        dropped (they can no longer be served here).
        """
        if self.failed:
            return
        if assignment is None:
            # Deactivated: drain the existing queue with the current model, then idle.
            self.active = False
            self.pending_assignment = None
            self._cancel_pending_swap()
            return
        self.active = True
        old = self.assignment
        if old is None:
            # Cold start: the model must be loaded before the first batch.
            self.assignment = assignment
            self.available_at_s = now_s + assignment.variant.load_time_ms / 1000.0
            self.sim.engine.schedule_event(ModelReadyEvent(self.available_at_s, self))
            return
        if old.variant.name == assignment.variant.name:
            # Same model, possibly different batch size / budget: no reload.
            self.assignment = assignment
            self.pending_assignment = None
            self._cancel_pending_swap()
            self._maybe_start_batch()
            return
        if old.task == assignment.task:
            # Same task, different variant: keep serving with the old variant
            # until the new one finishes loading.  A swap that is already
            # pending is superseded: its completion event must not install the
            # newer variant at the *older* variant's ready time.
            self._cancel_pending_swap()
            self.pending_assignment = assignment
            ready_at = now_s + assignment.variant.load_time_ms / 1000.0
            self._pending_swap_event = self.sim.engine.schedule_event(SwapCompleteEvent(ready_at, self))
            return
        # Task changed: queued queries of the old task cannot be served here.
        for stale in list(self.queue):
            self.sim.notify_drop(stale, reason="worker reassigned to a different task")
        self.queue.clear()
        self.pending_assignment = None
        self._cancel_pending_swap()
        self.assignment = assignment
        self.available_at_s = now_s + assignment.variant.load_time_ms / 1000.0
        self.sim.engine.schedule_event(ModelReadyEvent(self.available_at_s, self))

    def _complete_swap(self) -> None:
        """The pending same-task variant finished loading; switch over."""
        self._pending_swap_event = None
        if self.pending_assignment is not None:
            self.assignment = self.pending_assignment
            self.pending_assignment = None
            self._maybe_start_batch()

    @property
    def is_loaded(self) -> bool:
        return self.assignment is not None and self.sim.engine.now_s >= self.available_at_s - 1e-12

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def in_flight(self) -> int:
        """Queries in the batch currently executing (0 when idle)."""
        batch_event = self._batch_event
        return len(batch_event.batch) if batch_event is not None else 0

    @property
    def service_rate_qps(self) -> float:
        """Effective service rate of the configured batch, in queries/s.

        ``batch_size / execution_latency(batch_size)`` — the live-state
        signal queue-aware routing normalises backlogs by, so a deep queue on
        a fast variant compares fairly against a shallow one on a slow
        variant.  0.0 while nothing is hosted.
        """
        assignment = self.assignment
        if assignment is None:
            return 0.0
        latency_ms = assignment.variant.execution_latency_ms(assignment.batch_size)
        if latency_ms <= 0.0:
            return 0.0
        rate = assignment.batch_size * 1000.0 / latency_ms
        if self.slowdown != 1.0:
            rate /= self.slowdown
        return rate

    # -- fault injection ---------------------------------------------------------
    def fail(self, reason: str = "worker failed") -> None:
        """Hard failure: everything queued or executing here is lost --
        unless the resilience layer's failover is on, in which case queued
        and in-flight queries are re-queued to surviving replicas."""
        if self.failed:
            return
        self.failed = True
        self.fail_epoch += 1
        self.active = False
        resilience = getattr(self.sim, "resilience", None)
        if resilience is not None and not resilience.failover_active():
            resilience = None
        # The assignment is nulled below; failover needs the task to re-route.
        task = self.assignment.task if self.assignment is not None else None
        if resilience is not None and task is None:
            resilience = None
        if self._batch_event is not None:
            batch = self._batch_event.batch
            self._batch_event.cancel()
            self._batch_event = None
            if resilience is not None:
                resilience.requeue_queries(batch, task)
            else:
                for query in batch:
                    self.sim.notify_drop(query, reason=reason)
        self.busy = False
        if resilience is not None:
            if self.queue:
                resilience.requeue_queries(list(self.queue), task)
        else:
            for stale in list(self.queue):
                self.sim.notify_drop(stale, reason=reason)
        self.queue.clear()
        self.assignment = None
        self.pending_assignment = None
        self._cancel_pending_swap()

    def recover(self) -> None:
        """The worker comes back empty; the next plan application can use it.

        Pre-failure observation state is discarded: multiplicative-factor
        observations from the old assignment must not leak into the first
        post-recovery heartbeat.  The rate/backlog the control plane sees
        come from the *new* assignment once a plan rehosts this worker —
        until then it has no assignment and probes report it as
        unserviceable — and the remaining model-load time of the rehost is
        folded into ``queue_snapshot``'s backlog so queue-aware choosers do
        not dogpile the idle-looking recovered worker.
        """
        self.failed = False
        self.factor_observation_sum = 0.0
        self.factor_observation_count = 0

    # -- query intake ------------------------------------------------------------
    def enqueue(self, query: IntermediateQuery) -> None:
        """A query arrives at this worker (already includes network delay)."""
        engine = self._engine
        if engine is None:
            engine = self.sim.engine
        now = engine.now_s
        if self.failed:
            self.sim.notify_drop(query, reason="worker failed")
            return
        assignment = self.assignment
        if assignment is None:
            # No model hosted at all (should not happen when routing is consistent).
            self.sim.notify_drop(query, reason="worker has no assignment")
            return
        child_edges = assignment.child_edges
        if child_edges is None:
            child_edges = tuple(self.sim.pipeline.children(assignment.task))
        on_arrival = self._on_arrival
        if on_arrival is None:
            on_arrival = self.sim.drop_policy.on_arrival
        decision = on_arrival(
            not child_edges,
            (query.request.deadline_s - now) * 1000.0,
            assignment.expected_latency_ms,
        )
        if decision.action is DropAction.DROP:
            self.sim.notify_drop(query, reason=decision.reason)
            return
        # every pipeline task is pre-seeded in sim.task_arrivals
        self.sim.task_arrivals[assignment.task] += 1
        query.worker_arrival_s = now
        self.queue.append(query)
        if not self.busy:
            self._maybe_start_batch()

    # -- batching ----------------------------------------------------------------
    def _maybe_start_batch(self) -> None:
        if self.busy or not self.queue or self.assignment is None or self.failed:
            return
        now = self.sim.engine.now_s
        if now < self.available_at_s - 1e-12:
            return  # model still loading; a start is scheduled for load completion
        assignment = self.assignment
        batch_count = min(len(self.queue), assignment.batch_size)
        popleft = self.queue.popleft
        batch: List[IntermediateQuery] = [popleft() for _ in range(batch_count)]
        duration_s = assignment.variant.execution_latency_ms(batch_count) / 1000.0
        if self.slowdown != 1.0:
            duration_s *= self.slowdown
        self.busy = True
        self.busy_time_s += duration_s
        self._batch_event = self.sim.engine.schedule_event(BatchCompleteEvent(now + duration_s, self, batch))

    def _complete_batch(self, batch: List[IntermediateQuery]) -> None:
        sim = self.sim
        assignment = self.assignment
        self.busy = False
        self._batch_event = None
        if assignment is None:  # pragma: no cover - defensive
            for query in batch:
                sim.notify_drop(query, reason="assignment removed mid-batch")
            return
        now = sim.engine.now_s
        self.processed_batches += 1
        sim._tele_batches.value += 1
        sim._tele_batch_queries.value += len(batch)
        self.processed_queries += len(batch)
        accuracy = assignment.variant.accuracy
        child_edges = assignment.child_edges
        if child_edges is None:
            child_edges = tuple(sim.pipeline.children(assignment.task))
        if not child_edges:
            # Sink fast path: no downstream fan-out to sample, every query in
            # the batch returns straight to the Frontend.
            notify_sink = sim.notify_sink
            for query in batch:
                query.accuracy_so_far *= accuracy
                notify_sink(query)
        else:
            for query in batch:
                query.accuracy_so_far *= accuracy
                self._dispatch(query, assignment, now)
        if self.queue:
            self._maybe_start_batch()

    # -- forwarding ----------------------------------------------------------------
    def _dispatch(self, query: IntermediateQuery, assignment: WorkerAssignment, now_s: float) -> None:
        children = assignment.child_edges
        if children is None:
            children = tuple(self.sim.pipeline.children(assignment.task))
        if not children:
            self.sim.notify_sink(query)
            return

        time_in_task_ms = (now_s - query.worker_arrival_s) * 1000.0
        request = query.request

        # Sample the downstream fan-out for every outgoing edge.
        child_counts = []
        total_children = 0
        for edge in children:
            count = self.sim.content_model.sample_children(assignment.variant, edge, self.sim.rng)
            child_counts.append((edge, count))
            total_children += count
        self.factor_observation_sum += total_children
        self.factor_observation_count += 1

        if total_children == 0:
            # Nothing detected downstream; this branch of the request is done.
            request.record_internal_completion(now_s)
            self.sim.check_request(request)
            return

        request.add_outstanding(total_children)
        routing_table = self.sim.routing_table_for(assignment.logical_id)
        for edge, count in child_counts:
            for _ in range(count):
                child_query = self.sim.new_intermediate_query(request, edge.child, now_s, query.accuracy_so_far)
                self._forward(child_query, edge.child, time_in_task_ms, assignment, routing_table)
        # The parent query itself is finished (its children carry on).
        request.record_internal_completion(now_s)
        self.sim.check_request(request)

    def _forward(self, child_query, child_task: str, time_in_task_ms: float, assignment: WorkerAssignment, routing_table) -> None:
        planned_entry = routing_table.choose(child_task, self.sim.rng) if routing_table is not None else None
        backups = self.sim.backups_for(child_task)
        decision = self.sim.drop_policy.on_forward(
            time_in_task_ms,
            assignment.latency_budget_ms,
            planned_entry,
            backups,
            child_query.remaining_slo_ms(self.sim.engine.now_s),
            self.sim.rng,
        )
        if decision.action is DropAction.DROP:
            self.sim.notify_drop(child_query, reason=decision.reason)
            return
        if decision.action is DropAction.REROUTE and decision.target is not None:
            target_id = decision.target.worker_id
        elif planned_entry is not None:
            target_id = planned_entry.worker_id
        elif backups:
            target_id = backups[0].worker_id
        else:
            self.sim.notify_drop(child_query, reason="no downstream worker available")
            return
        self.sim.forward_query(child_query, target_id)

    # -- heartbeats -------------------------------------------------------------------
    def heartbeat(self) -> Optional[float]:
        """Return (and reset) the mean observed multiplicative factor since the last heartbeat."""
        if self.factor_observation_count == 0:
            return None
        mean = self.factor_observation_sum / self.factor_observation_count
        self.factor_observation_sum = 0.0
        self.factor_observation_count = 0
        return mean

    def __repr__(self):  # pragma: no cover - debug helper
        hosted = self.assignment.logical_id if self.assignment else "-"
        return f"SimWorker({self.physical_id}, hosting={hosted}, queue={len(self.queue)})"
