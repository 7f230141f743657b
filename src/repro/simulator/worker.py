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

Each data-plane decision has one home, which these loops call.  On arrival,
``enqueue`` runs the drop policy only when the query cannot finish in time
(the :meth:`DropPolicy.on_arrival` contract), queues the query and calls
``_maybe_start_batch``, which reads the batch's duration from the
assignment's ``batch_durations_s`` table.  A finished batch is one pass over
its queries in ``_complete_batch`` (sink tasks) or ``_dispatch`` (tasks with
children): a route is :meth:`RoutingTable.choose`, a hop
:meth:`NetworkModel.sample_delay_s` and a sink's bookkeeping
:meth:`Request.record_sink_completion`.  What stays inline is the fan-out
loop's Poisson draw, the drop-policy skip and the query-id and forwarded
counters kept in locals.  The RNG order per finished query is the one
``_dispatch`` documents; per client arrival the Frontend draws the route,
then the network delay.  A test-only copy of the per-helper paths these
loops replace (``tests/simulator/test_dispatch_reference.py``) must produce
bit-identical runs; change both together.

Every worker event is one calendar entry calling a worker method: a model
load ends in ``_maybe_start_batch``, a variant swap in ``_complete_swap`` and
a batch in ``_complete_batch``.  Nothing is cancelled.  A reassignment or a
fault that makes a scheduled swap or batch completion stale changes the
worker's state, and the entry checks that state when it runs: a swap installs
its assignment only if it is still ``pending_assignment``, and a completion
ends its batch only if it is still the executing ``batch``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.core.dropping import DropAction
from repro.core.profiles import ModelVariant
from repro.simulator.query import IntermediateQuery, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.simulator.runner import ServingSimulation

__all__ = ["WorkerAssignment", "SimWorker"]


@dataclass(frozen=True)
class WorkerAssignment:
    """What a worker is currently hosting (one row of the allocation plan).

    ``expected_latency_ms`` is the profiled execution time of one batch at the
    configured batch size; ``latency_budget_ms`` additionally includes the
    waiting-time allowance and is what the early-dropping policies compare the
    observed time-in-task against.  ``expected_latency_ms`` must be positive:
    a worker asks the drop policy about an arriving query only when its
    remaining SLO is below it, which keeps every policy's decisions (see
    :meth:`DropPolicy.on_arrival`).
    """

    logical_id: str
    task: str
    variant: ModelVariant
    batch_size: int
    latency_budget_ms: float
    expected_latency_ms: float
    #: one ``(child task, fixed count or None, Poisson mean, Poisson
    #: threshold or None)`` per outgoing pipeline edge, in edge order (empty
    #: for a sink task), read from the content model at plan application so
    #: a finished batch draws its fan-out counts without a per-query lookup;
    #: the threshold is :func:`repro.core.draws.poisson_threshold` of the mean
    fanout: Tuple[Tuple[str, Optional[int], float, Optional[float]], ...]
    #: ``variant.execution_latency_ms(n) / 1000.0`` at index ``n - 1``, for
    #: ``n = 1 .. batch_size``: the duration of every batch this assignment
    #: can run, derived once so a batch start is one lookup
    batch_durations_s: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.expected_latency_ms > 0.0:
            raise ValueError(f"expected_latency_ms must be positive, got {self.expected_latency_ms}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        durations = tuple(self.variant.execution_latency_ms(n) / 1000.0 for n in range(1, self.batch_size + 1))
        object.__setattr__(self, "batch_durations_s", durations)


class SimWorker:
    """One physical worker (GPU) in the simulated cluster."""

    __slots__ = (
        "physical_id",
        "sim",
        "assignment",
        "pending_assignment",
        "queue",
        "batch",
        "available_at_s",
        "active",
        "failed",
        "fail_epoch",
        "slowdown",
        "factor_observation_sum",
        "factor_observation_count",
        "_engine",
        "_calendar",
        "_on_arrival",
    )

    def __init__(self, physical_id: str, sim: "ServingSimulation"):
        self.physical_id = physical_id
        self.sim = sim
        #: hot-path caches, bound once: a run's engine, calendar and drop
        #: policy are fixed for the simulation's lifetime, so the per-query
        #: and per-batch paths skip an attribute hop each
        self._engine = sim.engine
        self._calendar = sim.engine.queue
        self._on_arrival = sim.drop_policy.on_arrival
        self.assignment: Optional[WorkerAssignment] = None
        #: new same-task assignment whose variant is still loading; the worker
        #: keeps serving with the old variant until the load completes
        self.pending_assignment: Optional[WorkerAssignment] = None
        self.queue: Deque[IntermediateQuery] = deque()
        #: the batch currently executing (None while idle); a completion of
        #: any other batch is stale: its batch was lost to ``fail()``
        self.batch: Optional[List[IntermediateQuery]] = None
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
        self.factor_observation_sum = 0.0
        self.factor_observation_count = 0

    # -- assignment ------------------------------------------------------------
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
            return
        self.active = True
        old = self.assignment
        if old is None:
            # Cold start: the model must be loaded before the first batch.
            self.assignment = assignment
            self.available_at_s = now_s + assignment.variant.load_time_ms / 1000.0
            self.sim.engine.call_at(self.available_at_s, SimWorker._maybe_start_batch, self)
            return
        if old.variant.name == assignment.variant.name:
            # Same model, possibly different batch size / budget: no reload.
            self.assignment = assignment
            self.pending_assignment = None
            self._maybe_start_batch()
            return
        if old.task == assignment.task:
            # Same task, different variant: keep serving with the old variant
            # until the new one finishes loading.  A swap that is already
            # pending is superseded: its completion carries the older
            # assignment and so installs nothing.
            self.pending_assignment = assignment
            ready_at = now_s + assignment.variant.load_time_ms / 1000.0
            self.sim.engine.call_at(ready_at, self._complete_swap, assignment)
            return
        # Task changed: queued queries of the old task cannot be served here.
        for stale in list(self.queue):
            self.sim.notify_drop(stale, reason="worker reassigned to a different task")
        self.queue.clear()
        self.pending_assignment = None
        self.assignment = assignment
        self.available_at_s = now_s + assignment.variant.load_time_ms / 1000.0
        self.sim.engine.call_at(self.available_at_s, SimWorker._maybe_start_batch, self)

    def _complete_swap(self, assignment: WorkerAssignment) -> None:
        """A same-task variant finished loading; switch over unless a later
        reassignment, a deactivation or a failure superseded it."""
        if assignment is self.pending_assignment:
            self.assignment = assignment
            self.pending_assignment = None
            self._maybe_start_batch()

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def in_flight(self) -> int:
        """Queries in the batch currently executing (0 when idle)."""
        batch = self.batch
        return len(batch) if batch is not None else 0

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
        and in-flight queries are re-queued to surviving replicas.

        This is the only place that clears ``assignment``, and it clears
        ``batch`` first, so a batch completion that finds its batch still
        executing always has an assignment."""
        if self.failed:
            return
        self.failed = True
        self.fail_epoch += 1
        self.active = False
        resilience = self.sim.resilience
        if resilience is not None and not resilience.failover_active():
            resilience = None
        # The assignment is nulled below; failover needs the task to re-route.
        task = self.assignment.task if self.assignment is not None else None
        if resilience is not None and task is None:
            resilience = None
        batch = self.batch
        if batch is not None:
            # Its scheduled completion finds another (or no) batch executing
            # and returns at once.
            self.batch = None
            if resilience is not None:
                resilience.requeue_queries(batch, task)
            else:
                for query in batch:
                    self.sim.notify_drop(query, reason=reason)
        if resilience is not None:
            if self.queue:
                resilience.requeue_queries(list(self.queue), task)
        else:
            for stale in list(self.queue):
                self.sim.notify_drop(stale, reason=reason)
        self.queue.clear()
        self.assignment = None
        self.pending_assignment = None

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
        """A query arrives at this worker (already includes network delay).

        The drop policy is asked only when the remaining SLO is below the
        expected processing time (the :meth:`DropPolicy.on_arrival`
        contract); a kept query is queued and an idle worker starts a batch.
        """
        now = self._engine.now_s
        if self.failed:
            self.sim.notify_drop(query, reason="worker failed")
            return
        assignment = self.assignment
        if assignment is None:
            # No model hosted at all (should not happen when routing is consistent).
            self.sim.notify_drop(query, reason="worker has no assignment")
            return
        remaining_slo_ms = (query.request.deadline_s - now) * 1000.0
        if remaining_slo_ms < assignment.expected_latency_ms:
            decision = self._on_arrival(not assignment.fanout, remaining_slo_ms, assignment.expected_latency_ms)
            if decision.action is DropAction.DROP:
                self.sim.notify_drop(query, reason=decision.reason)
                return
        # every pipeline task is pre-seeded in sim.task_arrivals
        self.sim.task_arrivals[assignment.task] += 1
        query.worker_arrival_s = now
        self.queue.append(query)
        if self.batch is None:
            self._maybe_start_batch()

    # -- batching ----------------------------------------------------------------
    def _maybe_start_batch(self) -> None:
        """Start a batch from the queue if the worker is idle and its model loaded.

        Called on an arrival at an idle worker, when a batch completes, at a
        load's completion, a swap and the bootstrap.
        """
        if self.batch is not None or not self.queue or self.assignment is None or self.failed:
            return
        now = self._engine.now_s
        if now < self.available_at_s - 1e-12:
            return  # model still loading; a start is scheduled for load completion
        assignment = self.assignment
        queue = self.queue
        batch_count = len(queue)
        if batch_count <= assignment.batch_size:
            # The whole queue fits: take it in one step.
            batch: List[IntermediateQuery] = list(queue)
            queue.clear()
        else:
            batch_count = assignment.batch_size
            popleft = queue.popleft
            batch = [popleft() for _ in range(batch_count)]
        duration_s = assignment.batch_durations_s[batch_count - 1]
        if self.slowdown != 1.0:
            duration_s *= self.slowdown
        self.batch = batch
        # call_at without its past-time check: the duration is >= 0
        calendar = self._calendar
        calendar._seq = seq = calendar._seq + 1
        heappush(calendar._heap, (now + duration_s, seq, self._complete_batch, batch))

    def _complete_batch(self, batch: List[IntermediateQuery]) -> None:
        if batch is not self.batch:
            return  # lost to fail(), which re-queued or dropped its queries
        sim = self.sim
        assignment = self.assignment
        self.batch = None
        now = self._engine.now_s
        sim._tele_batches.value += 1
        sim._tele_batch_queries.value += len(batch)
        fanout = assignment.fanout
        if fanout:
            self._dispatch(batch, assignment, fanout, now)
        else:
            # Sink task: every query returns to the Frontend over one network
            # hop.  Per query: the resilience layer's absorb check, then one
            # network draw, then the request's bookkeeping.
            accuracy = assignment.variant.accuracy
            resilience = sim.resilience
            rng = sim.rng
            sample_delay_s = sim.network.sample_delay_s
            record_finished = sim.metrics.record_request_finished
            in_flight = RequestStatus.IN_FLIGHT
            for query in batch:
                path_accuracy = query.accuracy_so_far * accuracy
                query.accuracy_so_far = path_accuracy
                if resilience is not None and resilience.absorb_sink(query):
                    continue  # hedge loser or timed-out straggler: already accounted
                request = query.request
                request.record_sink_completion(now + sample_delay_s(rng), path_accuracy)
                if request.status is not in_flight:
                    record_finished(request)
        if self.queue:
            self._maybe_start_batch()

    # -- forwarding ----------------------------------------------------------------
    def _dispatch(
        self,
        batch: List[IntermediateQuery],
        assignment: WorkerAssignment,
        fanout: Tuple[Tuple[str, Optional[int], float, Optional[float]], ...],
        now_s: float,
    ) -> None:
        """Forward the children of every query of a completed batch downstream.

        One pass: what the run and the routing plan fix is looked up once per
        batch (nothing on this path replaces the plan or the cluster map):
        the worker's routing table, the network model and the calendar.  The
        RNG stream is fixed per query: first one Poisson draw per edge whose
        count is not fixed (NumPy's multiplication method run inline over the
        stream's uniforms for a mean in ``(0, 10)``), then per child in edge
        order one routing draw (:meth:`RoutingTable.choose`; none without a
        table), the drop policy's ``on_forward`` (which draws only to break a
        reroute tie) and one network draw
        (:meth:`NetworkModel.sample_delay_s`).

        ``on_forward`` is called only when the parent overran its task
        budget or the child has no planned route: otherwise every policy
        forwards to the planned worker (the :meth:`DropPolicy.on_forward`
        contract).  The query-id counter and the forwarded tally are kept in
        locals and written back before every call that could read them
        (``notify_drop``, ``on_forward``, ``maybe_arm_hedge``) and at the end
        of the batch.  Keep this loop in sync with its test-only reference in
        ``tests/simulator/test_dispatch_reference.py``.
        """
        sim = self.sim
        rng = sim.rng
        random = rng.random
        poisson = rng.poisson
        accuracy = assignment.variant.accuracy
        plan = sim.routing_plan
        table = plan.table_for(assignment.logical_id) if plan is not None else None
        choose = table.choose if table is not None else None
        on_forward = sim.drop_policy.on_forward
        budget_ms = assignment.latency_budget_ms
        hosted = sim.cluster.logical_map.get
        sample_delay_s = sim.network.sample_delay_s
        calendar = self._calendar
        heap = calendar._heap
        notify_drop = sim.notify_drop
        forwarded = sim._tele_forwarded
        next_id = sim._next_query_id
        sent = 0  # hops not yet added to the forwarded tally
        resilience = sim.resilience
        hedging = resilience is not None and resilience.hedging
        record_finished = sim.metrics.record_request_finished
        in_flight = RequestStatus.IN_FLIGHT
        for query in batch:
            query.accuracy_so_far *= accuracy
            counts = []
            total_children = 0
            for _, fixed, mean, threshold in fanout:
                if fixed is not None:
                    count = fixed
                elif threshold is not None:
                    # DrawStream.poisson's multiplication loop, kept inline:
                    # calling rng.poisson here read 1.079x run_cpu_s on
                    # steady_dataplane (10 alternating pairs, the call faster
                    # in 2, median gap 0.30 s against the parent's 0.19 s
                    # IQR; by difference across two sessions).  Two direct
                    # 10-pair sets on a 2-core host read 0.997x (5 of 10) and
                    # 1.047x (3 of 10): no pair-rule win either way.
                    count = 0
                    product = random()
                    while product > threshold:
                        count += 1
                        product *= random()
                else:
                    count = poisson(mean)
                counts.append(count)
                total_children += count
            self.factor_observation_sum += total_children
            self.factor_observation_count += 1
            request = query.request
            if total_children:
                request.outstanding += total_children
                time_in_task_ms = (now_s - query.worker_arrival_s) * 1000.0
                overrun = time_in_task_ms > budget_ms
                path_accuracy = query.accuracy_so_far
                for (task, _, _, _), count in zip(fanout, counts):
                    for _ in range(count):
                        child = IntermediateQuery(next_id, request, task, now_s, path_accuracy)
                        next_id += 1
                        planned = choose(task, rng) if choose is not None else None
                        if planned is not None and not overrun:
                            target_id = planned.worker_id
                        else:
                            sim._next_query_id = next_id
                            forwarded.value += sent
                            sent = 0
                            backups = plan.backups_for(task) if plan is not None else ()
                            remaining_slo_ms = (request.deadline_s - now_s) * 1000.0
                            decision = on_forward(time_in_task_ms, budget_ms, planned, backups, remaining_slo_ms, rng)
                            action = decision.action
                            if action is DropAction.DROP:
                                notify_drop(child, reason=decision.reason)
                                continue
                            if action is DropAction.REROUTE and decision.target is not None:
                                sim._tele_rerouted.value += 1
                                target_id = decision.target.worker_id
                            elif planned is not None:
                                target_id = planned.worker_id
                            elif backups:
                                target_id = backups[0].worker_id
                            else:
                                notify_drop(child, reason="no downstream worker available")
                                continue
                        worker = hosted(target_id)
                        if worker is None:
                            sim._next_query_id = next_id
                            forwarded.value += sent
                            sent = 0
                            notify_drop(child, reason=f"logical worker {target_id} not hosted")
                            continue
                        sent += 1
                        # call_at without its past-time check: the delay is >= 0
                        calendar._seq = seq = calendar._seq + 1
                        heappush(heap, (now_s + sample_delay_s(rng), seq, worker.enqueue, child))
                        if hedging:
                            sim._next_query_id = next_id
                            forwarded.value += sent
                            sent = 0
                            resilience.maybe_arm_hedge(child, target_id)
            # The parent query itself is finished (its children, if any, carry on).
            request.record_internal_completion(now_s)
            if request.status is not in_flight and (resilience is None or not resilience.absorbed(request)):
                record_finished(request)
        sim._next_query_id = next_id
        forwarded.value += sent

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
