"""The Load Balancer and the MostAccurateFirst routing algorithm (Section 5).

The Load Balancer is a centralized component that converts the current
resource-allocation plan plus the estimated demand into *routing tables*:

* the **frontend table** tells the Frontend how to spread incoming client
  queries over the workers hosting the pipeline's root task, and
* each worker's table tells it how to spread the intermediate queries it
  produces over the workers hosting the downstream tasks.

Routing tables are produced by :class:`MostAccurateFirst` (Algorithm 1 in the
paper), one :class:`TrafficSplitPolicy`: tasks are visited in topological
order; within a task, workers are saturated in non-increasing order of their
variant's single-model accuracy.
Because end-to-end pipeline accuracy is monotone in the single-model
accuracies, saturating the most accurate workers first maximises end-to-end
accuracy for the routed demand.

Workers left with spare capacity are collected into per-task **backup tables**
that upstream workers use for opportunistic rerouting (Section 5.2).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import AllocationPlan
from repro.core.draws import Draws
from repro.core.pipeline import Pipeline
from repro.core.sampling import CompiledSampler

__all__ = [
    "WorkerState",
    "RoutingEntry",
    "RoutingTable",
    "BackupEntry",
    "RoutingPlan",
    "LoadBalancer",
    "RoutingPolicy",
    "TrafficSplitPolicy",
    "MostAccurateFirst",
    "workers_from_plan",
]


@dataclass
class WorkerState:
    """The Load Balancer's view of one worker (from heartbeat metadata)."""

    worker_id: str
    task: str
    variant_name: str
    accuracy: float
    capacity_qps: float
    latency_ms: float
    batch_size: int
    #: filled in by the routing algorithm
    incoming_qps: float = 0.0
    remaining_capacity_qps: float = 0.0

    def reset(self) -> None:
        self.incoming_qps = 0.0
        self.remaining_capacity_qps = self.capacity_qps


@dataclass(frozen=True)
class RoutingEntry:
    """One row of a routing table: route ``probability`` of traffic to ``worker_id``."""

    worker_id: str
    probability: float
    accuracy: float
    latency_ms: float


class RoutingTable:
    """Per-source routing table keyed by destination task.

    The probabilities for a destination task sum to at most 1; a sum below 1
    means the plan could not place that fraction of the expected traffic (the
    cluster is saturated) and samplers renormalise so queries still go
    somewhere, at the cost of queueing.

    Sampling happens on the per-query hot path of the simulator, so each
    destination's probability vector is compiled once (lazily, on first use)
    into a :class:`~repro.core.sampling.CompiledSampler`: the scalar ``choose``
    is a dict lookup plus a ``bisect`` over the cumulative-probability list.
    The compiled inverse-CDF draw consumes one uniform per query
    and performs the same float comparisons as the previous
    ``np.searchsorted`` implementation, so sampled routes are bit-identical.

    Tables additionally carry an optional **dynamic chooser**
    (:attr:`dynamic`, see :class:`repro.control.routing.DynamicChooser`): a
    dispatch-time plug point that queue-aware routing policies use to override
    individual draws with live cluster state (true join-shortest-queue,
    adaptive power-of-two).  Tables without a chooser — everything built by
    the pre-existing static policies — take exactly the historical code path
    and consume the RNG stream identically.
    """

    __slots__ = ("_entries", "_compiled", "dynamic")

    def __init__(self):
        self._entries: Dict[str, List[RoutingEntry]] = {}
        #: task -> (cumulative list, entries tuple, last index, CompiledSampler)
        self._compiled: Dict[str, Tuple[List[float], Tuple[RoutingEntry, ...], int, CompiledSampler]] = {}
        #: optional dispatch-time chooser consulted per draw; ``None`` means
        #: purely static table sampling
        self.dynamic = None

    def add(self, destination_task: str, entry: RoutingEntry) -> None:
        self._entries.setdefault(destination_task, []).append(entry)
        self._compiled.pop(destination_task, None)

    def entries(self, destination_task: str) -> List[RoutingEntry]:
        return list(self._entries.get(destination_task, []))

    def destination_tasks(self) -> List[str]:
        return list(self._entries)

    def routed_fraction(self, destination_task: str) -> float:
        return sum(e.probability for e in self._entries.get(destination_task, []))

    def _compile(self, destination_task: str):
        entries = self._entries.get(destination_task)
        if not entries:
            return None
        weights = [e.probability for e in entries]
        if sum(weights) <= 0.0:
            return None
        sampler = CompiledSampler(weights)
        compiled = (sampler.cumulative_list, tuple(entries), len(entries) - 1, sampler)
        self._compiled[destination_task] = compiled
        return compiled

    def compiled(
        self, destination_task: str
    ) -> Optional[Tuple[List[float], Tuple[RoutingEntry, ...], int, CompiledSampler]]:
        """One destination's compiled draw: ``(cumulative list, entries, last
        index, sampler)``, or ``None`` when no entry has a positive weight.

        ``entries[min(bisect_right(cumulative, rng.random()), last)]`` is the
        static draw of :meth:`choose`.  The simulator's hot paths bind this
        once per batch or per routing plan and bisect inline; a published
        plan's tables are not changed afterwards.
        """
        return self._compiled.get(destination_task) or self._compile(destination_task)

    def sampler_for(self, destination_task: str) -> Optional[CompiledSampler]:
        """The compiled (renormalised) sampler for one destination task."""
        compiled = self.compiled(destination_task)
        return compiled[3] if compiled is not None else None

    def set_dynamic(self, chooser) -> None:
        """Attach (or clear) the dispatch-time dynamic chooser."""
        self.dynamic = chooser

    def choose(self, destination_task: str, rng: Draws) -> Optional[RoutingEntry]:
        """Sample a destination worker proportionally to the routing probabilities.

        With a dynamic chooser attached, the draw is delegated to it (live
        queue-aware selection); the chooser may decline (no probe bound, no
        live destination) in which case the static compiled draw runs.
        """
        compiled = self._compiled.get(destination_task)
        if compiled is None:
            compiled = self._compile(destination_task)
            if compiled is None:
                return None
        cumulative, entries, last, _ = compiled
        dynamic = self.dynamic
        if dynamic is not None:
            index = dynamic.choose_index(entries, rng)
            if index is not None:
                return entries[index]
        # Deliberately inlines CompiledSampler.choose_index (bisect + clamp):
        # this runs once per simulated query and the method call is measurable.
        index = bisect_right(cumulative, rng.random())
        return entries[index if index < last else last]

    def is_empty(self) -> bool:
        return not self._entries

    def __repr__(self):  # pragma: no cover - debug helper
        parts = []
        for task, entries in self._entries.items():
            rows = ", ".join(f"{e.worker_id}:{e.probability:.2f}" for e in entries)
            parts.append(f"{task} -> [{rows}]")
        return f"RoutingTable({'; '.join(parts)})"


@dataclass(frozen=True)
class BackupEntry:
    """A worker with leftover capacity, advertised for opportunistic rerouting."""

    worker_id: str
    task: str
    variant_name: str
    accuracy: float
    latency_ms: float
    leftover_capacity_qps: float


@dataclass
class RoutingPlan:
    """The Load Balancer's full output for one routing refresh."""

    frontend_table: RoutingTable
    worker_tables: Dict[str, RoutingTable]
    #: per-task backup entries, fastest first; tuples so the per-query
    #: forwarding path can share them without copying
    backup_tables: Dict[str, Tuple[BackupEntry, ...]]
    #: fraction of expected demand per task that could not be placed (0 when
    #: the allocation plan has enough capacity everywhere)
    unplaced_fraction: Dict[str, float] = field(default_factory=dict)

    def table_for(self, worker_id: str) -> Optional[RoutingTable]:
        """The worker's routing table, or ``None`` when the plan routes nothing from it."""
        return self.worker_tables.get(worker_id)

    def backups_for(self, task: str) -> Tuple[BackupEntry, ...]:
        """The task's backup entries (the stored tuple, not a copy)."""
        return self.backup_tables.get(task, ())


class RoutingPolicy:
    """Protocol: anything with ``build(workers, demand_qps, factors) -> RoutingPlan``."""

    name = "routing"

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline

    def build(
        self,
        workers: Sequence[WorkerState],
        demand_qps: float,
        multiplicative_factors: Optional[Mapping[str, float]] = None,
    ) -> RoutingPlan:
        raise NotImplementedError


class TrafficSplitPolicy(RoutingPolicy):
    """Shared traversal: root routing + topological demand propagation + backups.

    Subclasses implement :meth:`split`, which decides how one parcel of demand
    is divided across one task's workers given their current spare capacity,
    as ``split(workers, demand_qps)``.
    """

    @staticmethod
    def worker_order(worker: WorkerState):
        """Sort key of one task's workers: the order :meth:`split` sees them in
        and the order in which they propagate demand to their children."""
        return worker.worker_id

    def split(self, workers: Sequence[WorkerState], demand_qps: float) -> List[float]:
        """Amounts (aligned with ``workers``) with ``amount_i <= remaining_i``
        and ``sum(amounts) <= demand_qps``."""
        raise NotImplementedError

    def build(
        self,
        workers: Sequence[WorkerState],
        demand_qps: float,
        multiplicative_factors: Optional[Mapping[str, float]] = None,
    ) -> RoutingPlan:
        """Produce routing tables for the given worker fleet and estimated demand."""
        multiplicative_factors = dict(multiplicative_factors or {})
        by_task: Dict[str, List[WorkerState]] = {}
        for worker in workers:
            worker.reset()
            by_task.setdefault(worker.task, []).append(worker)
        for task_workers in by_task.values():
            task_workers.sort(key=self.worker_order)

        frontend_table = RoutingTable()
        worker_tables: Dict[str, RoutingTable] = {w.worker_id: RoutingTable() for w in workers}
        unplaced: Dict[str, float] = {}

        root = self.pipeline.root
        placed = self._route_parcel(frontend_table, by_task.get(root, []), root, demand_qps)
        if demand_qps > 0:
            unplaced[root] = max(0.0, (demand_qps - placed) / demand_qps)

        for task_name in self.pipeline.topological_order():
            for worker in by_task.get(task_name, []):
                factor = multiplicative_factors.get(
                    worker.variant_name,
                    self.pipeline.registry.variant(worker.variant_name).multiplicative_factor,
                )
                table = worker_tables[worker.worker_id]
                for edge in self.pipeline.children(task_name):
                    outgoing = worker.incoming_qps * factor * edge.branch_ratio
                    if outgoing <= 1e-12:
                        continue
                    destinations = by_task.get(edge.child, [])
                    placed = self._route_parcel(table, destinations, edge.child, outgoing)
                    shortfall = (outgoing - placed) / outgoing
                    unplaced[edge.child] = max(unplaced.get(edge.child, 0.0), max(0.0, shortfall))

        return RoutingPlan(
            frontend_table=frontend_table,
            worker_tables=worker_tables,
            backup_tables=_build_backups(by_task),
            unplaced_fraction=unplaced,
        )

    def _route_parcel(
        self,
        table: RoutingTable,
        destinations: List[WorkerState],
        task: str,
        demand_qps: float,
    ) -> float:
        """Split one parcel across ``destinations``, append entries, return placed qps."""
        if demand_qps <= 1e-12 or not destinations:
            return 0.0
        amounts = self.split(destinations, demand_qps)
        placed = 0.0
        for worker, amount in zip(destinations, amounts):
            if amount <= 1e-12:
                continue
            amount = min(amount, worker.remaining_capacity_qps)
            if amount <= 1e-12:
                continue
            table.add(
                task,
                RoutingEntry(worker.worker_id, amount / demand_qps, worker.accuracy, worker.latency_ms),
            )
            worker.remaining_capacity_qps -= amount
            worker.incoming_qps += amount
            placed += amount
        return placed


def _build_backups(by_task: Mapping[str, List[WorkerState]]) -> Dict[str, Tuple[BackupEntry, ...]]:
    """Collect leftover capacity per task, fastest workers first."""
    backups: Dict[str, Tuple[BackupEntry, ...]] = {}
    for task_name, task_workers in by_task.items():
        entries = [
            BackupEntry(
                worker_id=w.worker_id,
                task=task_name,
                variant_name=w.variant_name,
                accuracy=w.accuracy,
                latency_ms=w.latency_ms,
                leftover_capacity_qps=w.remaining_capacity_qps,
            )
            for w in task_workers
            if w.remaining_capacity_qps > 1e-9
        ]
        entries.sort(key=lambda e: (e.latency_ms, -e.accuracy))
        backups[task_name] = tuple(entries)
    return backups


class MostAccurateFirst(TrafficSplitPolicy):
    """Algorithm 1: greedy accuracy-maximising routing-table generation.

    Each task's workers are visited most accurate first (ties: faster, then
    by id) and every parcel saturates them in that order.
    """

    name = "most_accurate_first"

    @staticmethod
    def worker_order(worker: WorkerState):
        return (-worker.accuracy, worker.latency_ms, worker.worker_id)

    def split(self, workers: Sequence[WorkerState], demand_qps: float) -> List[float]:
        amounts = []
        left = demand_qps
        for worker in workers:
            if left <= 1e-12:
                break
            take = min(left, worker.remaining_capacity_qps)
            amounts.append(take)
            left -= take
        return amounts


class LoadBalancer:
    """Wraps a routing policy with the periodic-refresh behaviour of Section 5.

    The Load Balancer re-runs the routing algorithm whenever the Resource
    Manager publishes a new plan and also periodically in between, to follow
    short-term demand changes.  The algorithm defaults to the paper's
    :class:`MostAccurateFirst`; any :class:`RoutingPolicy` can be plugged in
    (see :mod:`repro.control.routing` for the registry of alternatives).
    """

    def __init__(self, pipeline: Pipeline, refresh_interval_s: float = 1.0, policy=None):
        self.pipeline = pipeline
        self.refresh_interval_s = float(refresh_interval_s)
        self.algorithm = policy if policy is not None else MostAccurateFirst(pipeline)
        self.current_plan: Optional[RoutingPlan] = None
        self._last_refresh_s: Optional[float] = None
        self.refresh_count = 0
        self.total_refresh_time_s = 0.0
        self.last_refresh_time_s = 0.0

    def should_refresh(self, now_s: float, plan_changed: bool) -> bool:
        if plan_changed or self.current_plan is None or self._last_refresh_s is None:
            return True
        return now_s - self._last_refresh_s >= self.refresh_interval_s

    def refresh(
        self,
        now_s: float,
        workers: Sequence[WorkerState],
        demand_qps: float,
        multiplicative_factors: Optional[Mapping[str, float]] = None,
    ) -> RoutingPlan:
        import time as _time

        start = _time.perf_counter()  # reprolint: disable=R002 -- refresh-latency stat is reporting-only
        plan = self.algorithm.build(workers, demand_qps, multiplicative_factors)
        self.last_refresh_time_s = _time.perf_counter() - start  # reprolint: disable=R002 -- reporting-only
        self.total_refresh_time_s += self.last_refresh_time_s
        self.refresh_count += 1
        self.current_plan = plan
        self._last_refresh_s = now_s
        return plan

    @property
    def mean_refresh_time_s(self) -> float:
        return self.total_refresh_time_s / self.refresh_count if self.refresh_count else 0.0


def workers_from_plan(plan: AllocationPlan, pipeline: Pipeline) -> List[WorkerState]:
    """Expand an allocation plan into per-worker states.

    Each replica in the plan becomes one worker; worker ids encode the task,
    variant, batch size and replica index so they are stable across refreshes
    for an unchanged plan.
    """
    workers: List[WorkerState] = []
    for allocation in plan.allocations:
        variant = pipeline.registry.variant(allocation.variant_name)
        for replica in range(allocation.replicas):
            workers.append(
                WorkerState(
                    worker_id=f"{allocation.task}/{allocation.variant_name}/b{allocation.batch_size}/{replica}",
                    task=allocation.task,
                    variant_name=allocation.variant_name,
                    accuracy=variant.accuracy,
                    capacity_qps=allocation.throughput_qps,
                    latency_ms=allocation.latency_ms,
                    batch_size=allocation.batch_size,
                )
            )
    return workers
