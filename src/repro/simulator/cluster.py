"""The simulated worker fleet and allocation-plan application.

The cluster owns a fixed set of physical workers (``S`` GPUs).  Whenever the
Resource Manager publishes a new allocation plan, :meth:`Cluster.apply_plan`
maps the plan's logical workers (one per replica of a hosted configuration)
onto physical workers.  The mapping is kept as stable as possible so that
unchanged replicas do not pay the model-swap overhead; physical workers whose
assignment changes variant incur the variant's load time before they can serve
queries again.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.allocation import AllocationPlan
from repro.core.draws import poisson_threshold
from repro.core.load_balancer import WorkerState, workers_from_plan
from repro.core.pipeline import Pipeline
from repro.simulator.worker import SimWorker, WorkerAssignment

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.runner import ServingSimulation

__all__ = ["Cluster"]


class Cluster:
    """Fixed-size fleet of physical workers."""

    def __init__(self, sim: "ServingSimulation", num_workers: int):
        if num_workers < 1:
            raise ValueError("cluster needs at least one worker")
        self.sim = sim
        self.num_workers = int(num_workers)
        self.workers: List[SimWorker] = [SimWorker(f"w{i}", sim) for i in range(num_workers)]
        #: logical plan-worker id -> physical worker currently hosting it
        self.logical_map: Dict[str, SimWorker] = {}
        self.plan_applications = 0
        self.model_loads = 0
        self.fault_events = 0
        #: logical plan workers the last plan wanted but no healthy physical
        #: worker could host (non-zero only while failures shrink the fleet)
        self.unhosted_logical = 0

    # -- plan application -------------------------------------------------------
    def apply_plan(self, plan: AllocationPlan, pipeline: Pipeline, now_s: float) -> List[WorkerState]:
        """Map the plan's logical workers onto physical workers.

        Returns the logical :class:`WorkerState` list (as the Load Balancer
        sees it) for convenience.
        """
        logical_workers = workers_from_plan(plan, pipeline)
        if len(logical_workers) > self.num_workers:
            raise ValueError(
                f"plan requires {len(logical_workers)} workers but the cluster has {self.num_workers}"
            )
        desired: Dict[str, WorkerState] = {w.worker_id: w for w in logical_workers}

        # Keep logical ids that are already hosted where they are.
        new_map: Dict[str, SimWorker] = {}
        used_physical = set()
        for logical_id, worker in self.logical_map.items():
            if logical_id in desired and not worker.failed:
                new_map[logical_id] = worker
                used_physical.add(worker.physical_id)

        free_workers = [w for w in self.workers if w.physical_id not in used_physical and not w.failed]
        unassigned = [w for w in logical_workers if w.worker_id not in new_map]

        # Prefer physical workers already hosting the same variant (no reload).
        def variant_of(worker: SimWorker) -> Optional[str]:
            return worker.assignment.variant.name if worker.assignment else None

        for logical in list(unassigned):
            match = next((w for w in free_workers if variant_of(w) == logical.variant_name), None)
            if match is not None:
                new_map[logical.worker_id] = match
                free_workers.remove(match)
                unassigned.remove(logical)
        for logical, physical in zip(unassigned, free_workers):
            new_map[logical.worker_id] = physical

        # Apply assignments.
        newly_loaded = 0
        content_model = self.sim.content_model
        budget_slack = self.sim.config.budget_slack
        for logical_id, physical in new_map.items():
            state = desired[logical_id]
            variant = pipeline.registry.variant(state.variant_name)
            previous = physical.assignment.variant.name if physical.assignment else None
            fanout = []
            for edge in pipeline.children(state.task):
                fixed, mean = content_model.fanout(variant, edge)
                fanout.append((edge.child, fixed, mean, poisson_threshold(mean) if fixed is None else None))
            assignment = WorkerAssignment(
                logical_id=logical_id,
                task=state.task,
                variant=variant,
                batch_size=state.batch_size,
                latency_budget_ms=state.latency_ms * budget_slack,
                expected_latency_ms=state.latency_ms,
                fanout=tuple(fanout),
            )
            physical.assign(assignment, now_s)
            if previous != variant.name:
                newly_loaded += 1

        # Deactivate physical workers not referenced by the new plan.
        referenced = {w.physical_id for w in new_map.values()}
        for worker in self.workers:
            if worker.physical_id not in referenced and not worker.failed:
                worker.assign(None, now_s)

        self.logical_map = new_map
        self.plan_applications += 1
        self.model_loads += newly_loaded
        # Failures can leave the plan partially hosted: queries routed to the
        # unhosted logical workers are dropped (and show up as SLO violations)
        # until the fleet recovers or the control plane shrinks the plan.
        self.unhosted_logical = len(logical_workers) - len(new_map)
        return logical_workers

    # -- fault injection --------------------------------------------------------
    def fail_worker(self, physical_id: str) -> SimWorker:
        """Hard-fail one physical worker (fault injection)."""
        worker = next(w for w in self.workers if w.physical_id == physical_id)
        worker.fail()
        self.logical_map = {lid: w for lid, w in self.logical_map.items() if w is not worker}
        self.fault_events += 1
        return worker

    def recover_worker(self, physical_id: str) -> SimWorker:
        """Recover a previously failed worker; the next plan can reuse it."""
        worker = next(w for w in self.workers if w.physical_id == physical_id)
        worker.recover()
        return worker

    @property
    def failed_workers(self) -> int:
        return sum(1 for w in self.workers if w.failed)

    # -- queries ------------------------------------------------------------------
    def resolve(self, logical_id: str) -> Optional[SimWorker]:
        """Physical worker currently hosting the given logical plan worker."""
        return self.logical_map.get(logical_id)

    @property
    def active_workers(self) -> int:
        return sum(1 for w in self.workers if w.active)

    # -- live state (feedback-control API) ----------------------------------------
    def queue_snapshot(self, worker_ids: Sequence[str]) -> Tuple[List[float], List[float]]:
        """Dispatch-time probe: ``(backlogs, service_rates)`` per logical id.

        The :class:`~repro.control.context.ClusterStateProvider` protocol —
        dynamic routing choosers call this once per draw.
        Backlog counts queued plus executing
        queries; unhosted or failed logical ids come back as ``(inf, 0.0)``
        so queue-aware choosers route around them without special-casing.

        A worker whose model is still loading (cold start, or a
        just-recovered worker being rehosted) reports its remaining load
        time folded into the backlog as rate-equivalent queries: an empty
        queue behind a 2 s load is the same expected wait as a 2 s queue,
        so ``jsq``/``adaptive_p2c`` neither dogpile the idle-looking worker
        nor need a special not-ready case.
        """
        backlogs: List[float] = []
        rates: List[float] = []
        logical_map = self.logical_map
        now_s = self.sim.engine.now_s
        for worker_id in worker_ids:
            worker = logical_map.get(worker_id)
            if worker is None or worker.failed or worker.assignment is None:
                backlogs.append(math.inf)
                rates.append(0.0)
                continue
            # Deliberately inlines queue_length + in_flight: this probe runs
            # once per routing draw under jsq; keep in sync with the
            # SimWorker properties of the same names.
            batch = worker.batch
            backlog = len(worker.queue) + (len(batch) if batch is not None else 0)
            rate = worker.service_rate_qps
            pending_load_s = worker.available_at_s - now_s
            if pending_load_s > 1e-12:
                backlog += rate * pending_load_s
            backlogs.append(backlog)
            rates.append(rate)
        return backlogs, rates

    def heartbeats(self) -> Dict[str, float]:
        """Collect per-variant mean multiplicative-factor observations since the last call."""
        observations: Dict[str, List[float]] = {}
        for worker in self.workers:
            if worker.assignment is None:
                continue
            value = worker.heartbeat()
            if value is not None:
                observations.setdefault(worker.assignment.variant.name, []).append(value)
        return {name: sum(values) / len(values) for name, values in observations.items()}
