"""Proteus-style baseline: accuracy scaling per task, pipeline-agnostic.

Proteus [Ahmad et al., ASPLOS '24] introduced accuracy scaling for
*independent* models on a fixed-size cluster.  Applied to a pipeline the way
the paper describes ("it handles each task in the pipeline independently"),
this means:

* every task is treated as a stand-alone model with its own observed demand
  (the arrival rate its workers see, not the pipeline-propagated demand Loki
  computes from multiplicative factors);
* the per-task latency requirement is the full pipeline SLO (halved for
  queueing) because the system does not know the tasks share one deadline;
* the whole cluster is always in use -- there is no hardware-scaling step --
  and workers are split across tasks by a joint accuracy-maximising
  allocation that is blind to inter-task dependencies.

Those three properties produce exactly the failure modes Section 6.2 reports:
throughput bottlenecks when upstream variants change the downstream load, end
to-end deadline misses even when each task individually "meets" its target,
and no server savings at off-peak times.

The plan construction lives in :class:`ProteusAllocationPolicy`, an
:class:`~repro.control.policies.AllocationPolicy`;
:class:`ProteusControlPlane` is the control-plane engine built with it.

Configuration reduction
-----------------------
The allocation MILP has one ``(x, f)`` column pair -- integer replicas and
served QPS -- per ``(task, variant)``, at the one batch :func:`proteus_batch`
picks: the highest-throughput batch whose latency fits the per-model budget.
This is exact.  Every batch of a variant has the variant's accuracy, so a
batch's ``f`` column has the same objective coefficient and the same
served-demand row whatever the batch.  Given any feasible point of the model
over *all* latency-feasible batches, move each variant's replicas and flow
onto its highest-throughput batch: the replica total (the cluster row) and
the flow (the demand rows and the objective) are unchanged, and the moved
flow still fits, since each replica now serves at least as many QPS as
before.  So the reduced model is feasible exactly when the all-batches model
is, with the same optimum.  On the traffic pipeline that is 40 columns
instead of 196 (20 variants against 98 latency-feasible batches at the
default 250 ms SLO).  ``tests/baselines/test_proteus_reduction.py`` checks
the equality against the all-batches model.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.control.engine import ControlPlaneEngine
from repro.control.policies import AllocationPolicy
from repro.core.allocation import ACCURACY_SCALING, AllocationPlan, VariantAllocation
from repro.core.pipeline import Pipeline
from repro.core.profiles import ModelVariant
from repro.solver import DEFAULT_SOLVER_OPTIONS, StandardForm, solve

__all__ = ["ProteusAllocationPolicy", "ProteusControlPlane", "proteus_batch"]


def proteus_batch(variant: ModelVariant, budget_ms: float) -> Optional[int]:
    """The batch Proteus serves ``variant`` at: the highest-throughput batch
    whose latency fits ``budget_ms``, the smaller one on equal throughput.

    ``None`` when no batch fits.  Highest throughput, not largest batch, so
    the choice stays exact (see "Configuration reduction" above) for any
    latency table.
    """
    fitting = [batch for batch in variant.batch_sizes if variant.latency_ms(batch) <= budget_ms]
    if not fitting:
        return None
    return max(fitting, key=lambda batch: (variant.throughput_qps(batch), -batch))


class ProteusAllocationPolicy(AllocationPolicy):
    """Pipeline-agnostic accuracy scaling over the whole cluster."""

    def __init__(
        self,
        solver_options: Optional[Dict[str, object]] = None,
        slo_slack_factor: float = 2.0,
    ):
        super().__init__()
        self.solver_options = dict(DEFAULT_SOLVER_OPTIONS if solver_options is None else solver_options)
        self.slo_slack_factor = float(slo_slack_factor)

    # -- demand view ---------------------------------------------------------------
    def fingerprint(self) -> Tuple:
        """Proteus plans also depend on the observed per-task demand.

        The estimates are quantised to the demand quantum so the plan cache is
        still useful, while genuine drift (e.g. upstream variants changing the
        downstream load) invalidates stale plans.
        """
        engine = self.engine
        quantum = engine.demand_quantum_qps if engine.demand_quantum_qps > 0 else 1.0
        demands = tuple(
            sorted(
                (
                    task,
                    math.ceil(max(est.estimate(), engine.min_demand_qps) / quantum) * quantum
                    if est.num_observations
                    else None,
                )
                for task, est in engine.task_demand.items()
            )
        )
        return (super().fingerprint(), demands)

    def task_demand_estimate(self, task_name: str, root_target_qps: float) -> float:
        """Reactive per-task demand: what this task's workers have recently observed.

        Before any traffic has been observed at a downstream task the estimate
        falls back to the root demand (an optimistic under-estimate for tasks
        whose real load is multiplied by upstream fan-out -- the blind spot of
        a pipeline-agnostic system).
        """
        engine = self.engine
        estimator = engine.task_demand.get(task_name)
        if estimator is not None and estimator.num_observations > 0:
            return max(estimator.estimate(), engine.min_demand_qps)
        return max(root_target_qps, engine.min_demand_qps)

    # -- allocation -------------------------------------------------------------------
    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        """Joint accuracy-maximising allocation treating every task as an independent model."""
        engine = self.engine
        pipeline = engine.pipeline
        tasks = list(pipeline.tasks)
        demands = {task: self.task_demand_estimate(task, target_demand_qps) for task in tasks}
        budget_ms = engine.latency_slo_ms / self.slo_slack_factor

        # Columns interleave x (instances, integer) and f (served QPS) per
        # (task, variant) at the variant's proteus_batch, task by task; a
        # variant with no batch inside the per-model budget (the only latency
        # awareness Proteus has) gets no columns.
        configs: List[Tuple[Tuple[str, str, int], ModelVariant, float, float]] = []
        for task in tasks:
            for variant in pipeline.registry.variants(task):
                batch = proteus_batch(variant, budget_ms)
                if batch is not None:
                    configs.append(
                        ((task, variant.name, batch), variant, variant.throughput_qps(batch), variant.latency_ms(batch))
                    )
        feasible_tasks = [task for task in tasks if any(key[0] == task for key, *_ in configs)]
        num_configs = len(configs)
        num_vars = 2 * num_configs
        k = np.arange(num_configs)
        # f <= x * throughput per configuration, then the cluster size.
        capacity = np.zeros((num_configs, num_vars))
        capacity[k, 2 * k] = [-throughput for _, _, throughput, _ in configs]
        capacity[k, 2 * k + 1] = 1.0
        cluster = np.zeros((1, num_vars))
        cluster[0, 0::2] = 1.0
        # Every task's observed demand is served in full.
        served = np.zeros((len(feasible_tasks), num_vars))
        served[:, 1::2] = [[key[0] == task for key, *_ in configs] for task in feasible_tasks]
        c = np.zeros(num_vars)
        c[1::2] = [-(variant.accuracy / max(demands[key[0]], 1e-9) / len(tasks)) for key, variant, _, _ in configs]
        ub = np.full(num_vars, math.inf)
        ub[0::2] = float(engine.num_workers)
        integrality = np.zeros(num_vars)
        integrality[0::2] = 1.0
        form = StandardForm(
            c=c,
            A_ub=sparse.csr_matrix(np.vstack([capacity, cluster])),
            b_ub=np.array([0.0] * num_configs + [float(engine.num_workers)]),
            A_eq=sparse.csr_matrix(served),
            b_eq=np.array([float(demands[task]) for task in feasible_tasks]),
            lb=np.zeros(num_vars),
            ub=ub,
            integrality=integrality,
            sense=-1,
        )

        solution = solve(form, **self.solver_options)
        if not solution.is_optimal:
            return self._fallback_plan(target_demand_qps, demands, budget_ms)

        allocations: List[VariantAllocation] = []
        total_workers = 0
        accuracy_weighted = 0.0
        accuracy_norm = 0.0
        counts = solution.x[0::2].tolist()
        flows = solution.x[1::2].tolist()
        for (key, variant, throughput, latency), count, flow in zip(configs, counts, flows):
            replicas = int(round(count))
            if replicas <= 0:
                continue
            total_workers += replicas
            allocations.append(
                VariantAllocation(
                    task=key[0],
                    variant_name=key[1],
                    batch_size=key[2],
                    replicas=replicas,
                    throughput_qps=throughput,
                    latency_ms=latency,
                    accuracy=variant.accuracy,
                )
            )
            accuracy_weighted += flow * variant.accuracy
            accuracy_norm += flow
        expected_accuracy = accuracy_weighted / accuracy_norm if accuracy_norm else 0.0
        # Proteus performs no hardware scaling: the entire cluster stays active
        # (Section 6.2, "Proteus ... uses the entire cluster throughout").  The
        # leftover workers host extra replicas of the most accurate variant
        # already selected for each task, round-robin across tasks.
        allocations, total_workers = self._fill_cluster(allocations, total_workers, feasible_tasks, budget_ms)
        return AllocationPlan(
            pipeline_name=pipeline.name,
            mode=ACCURACY_SCALING,
            demand_qps=target_demand_qps,
            allocations=allocations,
            path_ratios={},
            expected_accuracy=expected_accuracy,
            total_workers=total_workers,
            feasible=True,
            solver_info=dict(solution.info),
        )

    def _fill_cluster(
        self,
        allocations: List[VariantAllocation],
        total_workers: int,
        tasks: List[str],
        budget_ms: float,
    ) -> Tuple[List[VariantAllocation], int]:
        """Assign leftover workers as extra replicas (no hardware scale-down)."""
        engine = self.engine
        if total_workers >= engine.num_workers or not tasks:
            return allocations, total_workers
        by_key: Dict[Tuple[str, str, int], VariantAllocation] = {
            (a.task, a.variant_name, a.batch_size): a for a in allocations
        }
        task_cycle = sorted(tasks)
        index = 0
        while total_workers < engine.num_workers:
            task = task_cycle[index % len(task_cycle)]
            index += 1
            existing = [a for a in by_key.values() if a.task == task]
            if existing:
                best = max(existing, key=lambda a: a.accuracy)
                key = (best.task, best.variant_name, best.batch_size)
                by_key[key] = VariantAllocation(
                    task=best.task,
                    variant_name=best.variant_name,
                    batch_size=best.batch_size,
                    replicas=best.replicas + 1,
                    throughput_qps=best.throughput_qps,
                    latency_ms=best.latency_ms,
                    accuracy=best.accuracy,
                )
            else:
                variant = engine.pipeline.registry.most_accurate(task)
                batch = proteus_batch(variant, budget_ms) or min(variant.batch_sizes)
                key = (task, variant.name, batch)
                by_key[key] = VariantAllocation(
                    task=task,
                    variant_name=variant.name,
                    batch_size=batch,
                    replicas=1,
                    throughput_qps=variant.throughput_qps(batch),
                    latency_ms=variant.latency_ms(batch),
                    accuracy=variant.accuracy,
                )
            total_workers += 1
        return list(by_key.values()), total_workers

    def _fallback_plan(self, target_demand_qps: float, demands: Dict[str, float], budget_ms: float) -> AllocationPlan:
        """Greedy fallback when the joint MILP is infeasible (demand above cluster capacity).

        Workers are handed out task by task, cheapest (fastest) variants first,
        proportionally to each task's share of the total observed demand, which
        is how an accuracy-scaling system degrades once it runs out of room.
        """
        engine = self.engine
        pipeline = engine.pipeline
        total_demand = sum(demands.values()) or 1.0
        allocations: List[VariantAllocation] = []
        total_workers = 0
        tasks = list(pipeline.tasks)
        for task in tasks:
            share = demands[task] / total_demand
            budget_workers = max(1, int(round(share * engine.num_workers)))
            budget_workers = min(budget_workers, engine.num_workers - total_workers)
            if budget_workers <= 0:
                continue
            variant = pipeline.registry.least_accurate(task)
            batch = proteus_batch(variant, budget_ms) or min(variant.batch_sizes)
            allocations.append(
                VariantAllocation(
                    task=task,
                    variant_name=variant.name,
                    batch_size=batch,
                    replicas=budget_workers,
                    throughput_qps=variant.throughput_qps(batch),
                    latency_ms=variant.latency_ms(batch),
                    accuracy=variant.accuracy,
                )
            )
            total_workers += budget_workers
        expected_accuracy = (
            sum(a.accuracy * a.replicas for a in allocations) / total_workers if total_workers else 0.0
        )
        return AllocationPlan(
            pipeline_name=pipeline.name,
            mode=ACCURACY_SCALING,
            demand_qps=target_demand_qps,
            allocations=allocations,
            path_ratios={},
            expected_accuracy=expected_accuracy,
            total_workers=total_workers,
            feasible=False,
        )


class ProteusControlPlane(ControlPlaneEngine):
    """The control-plane engine with Proteus's allocation policy."""

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int,
        solver_options: Optional[Dict[str, object]] = None,
        slo_slack_factor: float = 2.0,
        **kwargs,
    ):
        policy = ProteusAllocationPolicy(
            solver_options=solver_options,
            slo_slack_factor=slo_slack_factor,
        )
        super().__init__(pipeline, policy, num_workers=num_workers, **kwargs)
