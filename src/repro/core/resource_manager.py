"""The Resource Manager: two-step hardware/accuracy scaling (Section 4).

The Resource Manager is invoked periodically (every 10 seconds in the paper's
experiments).  Each invocation it

1. estimates the demand to provision for (an exponentially weighted moving
   average over the recent demand history, Section 4.2),
2. tries *hardware scaling*: meet the estimated demand with the fewest
   workers while every task uses its most accurate variant, and
3. if that is infeasible with the whole cluster, falls back to *accuracy
   scaling*: use the whole cluster and choose variants/batch sizes/replication
   factors that maximise system accuracy while meeting the demand.

The heavy lifting is done by :class:`repro.core.allocation.AllocationProblem`;
this module adds demand estimation, plan caching (identical quantised demands
re-use the previous MILP solution, which keeps long simulations tractable)
and the "significant change between periodic invocations" trigger.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, Optional, Tuple

from repro.core.allocation import ACCURACY_SCALING, INCUMBENTS, AllocationPlan, AllocationProblem, HARDWARE_SCALING
from repro.core.metadata import MetadataStore, multiplier_fingerprint
from repro.core.pipeline import Pipeline

__all__ = ["DemandEstimator", "ResourceManager", "ResourceManagerStats"]

#: solved plans whose configurations seed accuracy scaling's recent MILP
#: (see "Support incumbent" in :mod:`repro.core.allocation`)
RECENT_PLANS = 3


class DemandEstimator:
    """Exponentially weighted moving average of the observed demand.

    The estimate optionally includes a safety headroom factor so the plan is
    provisioned slightly above the smoothed demand, absorbing sub-interval
    bursts.
    """

    def __init__(self, alpha: float = 0.5, headroom: float = 1.05, initial: float = 0.0):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.alpha = float(alpha)
        self.headroom = float(headroom)
        self._estimate = float(initial)
        self._observations = 0

    def observe(self, demand_qps: float) -> float:
        """Fold one demand sample into the estimate and return the new estimate."""
        if demand_qps < 0:
            raise ValueError("demand cannot be negative")
        if self._observations == 0:
            self._estimate = demand_qps
        else:
            self._estimate = self.alpha * demand_qps + (1 - self.alpha) * self._estimate
        self._observations += 1
        return self.estimate()

    def estimate(self) -> float:
        """Current provisioning target (smoothed demand x headroom)."""
        return self._estimate * self.headroom

    @property
    def num_observations(self) -> int:
        return self._observations

    def reset(self, value: float = 0.0) -> None:
        self._estimate = float(value)
        self._observations = 0


@dataclass
class ResourceManagerStats:
    """Bookkeeping about Resource Manager activity (used by Section 6.5 benches)."""

    invocations: int = 0
    milp_solves: int = 0
    cache_hits: int = 0
    hardware_plans: int = 0
    accuracy_plans: int = 0
    infeasible_plans: int = 0
    #: solved accuracy-scaling plans per ``solver_info["incumbent"]``
    #: (``"support"``, ``"recent"``, ``"milp"``)
    incumbents: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(INCUMBENTS, 0))
    #: hardware-scaling calls whose capacity check proved them infeasible
    hardware_lp_infeasible: int = 0


class ResourceManager:
    """Periodic resource allocation with hardware and accuracy scaling.

    Parameters
    ----------
    pipeline:
        The pipeline to manage.
    num_workers:
        Cluster size ``S``.
    metadata:
        The Metadata Store to read demand history and multiplier estimates
        from; a fresh one is created when omitted.
    invocation_interval_s:
        Period between invocations (10 s in the paper).
    demand_quantum_qps:
        Demand estimates are rounded *up* to a multiple of this quantum before
        solving.  Identical quantised demands reuse the cached plan, so the
        quantum trades plan optimality against MILP solve count.
    reallocation_threshold:
        Relative demand change between periodic invocations that triggers an
        immediate re-allocation ("significant change", Section 4.2).
    min_demand_qps:
        Floor on the provisioning target so the system always hosts at least a
        minimal deployment even when demand momentarily drops to zero.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int,
        metadata: Optional[MetadataStore] = None,
        latency_slo_ms: Optional[float] = None,
        communication_latency_ms: float = 2.0,
        batch_sizes: Optional[Tuple[int, ...]] = None,
        invocation_interval_s: float = 10.0,
        ewma_alpha: float = 0.5,
        headroom: float = 1.1,
        demand_quantum_qps: float = 20.0,
        reallocation_threshold: float = 0.25,
        min_demand_qps: float = 1.0,
        utilization_target: float = 0.75,
        accuracy_improvement_margin: float = 0.02,
        solver_options: Optional[Dict[str, object]] = None,
        plan_cache_size: int = 256,
    ):
        self.pipeline = pipeline
        self.num_workers = int(num_workers)
        self.metadata = metadata if metadata is not None else MetadataStore(pipeline)
        self.latency_slo_ms = float(latency_slo_ms if latency_slo_ms is not None else pipeline.latency_slo_ms)
        self.communication_latency_ms = float(communication_latency_ms)
        self.batch_sizes = batch_sizes
        self.invocation_interval_s = float(invocation_interval_s)
        self.estimator = DemandEstimator(alpha=ewma_alpha, headroom=headroom)
        self.demand_quantum_qps = float(demand_quantum_qps)
        self.reallocation_threshold = float(reallocation_threshold)
        self.min_demand_qps = float(min_demand_qps)
        self.utilization_target = float(utilization_target)
        self.accuracy_improvement_margin = float(accuracy_improvement_margin)
        self.solver_options = solver_options
        self.plan_cache_size = int(plan_cache_size)

        self.stats = ResourceManagerStats()
        self._plan_cache: Dict[Tuple[float, Tuple[Tuple[str, float], ...]], AllocationPlan] = {}
        self._last_invocation_s: Optional[float] = None
        self._last_planned_demand: Optional[float] = None
        self.current_plan: Optional[AllocationPlan] = None
        #: ``(task, variant, batch)`` keys of the last solved plans, newest last
        self._recent_configs: Deque[FrozenSet[Tuple[str, str, int]]] = deque(maxlen=RECENT_PLANS)
        self._allocation_problem: Optional[AllocationProblem] = None

    # -- demand handling ------------------------------------------------------
    def observe_demand(self, timestamp_s: float, demand_qps: float) -> None:
        """Feed one Frontend demand report into the estimator and metadata store."""
        self.metadata.record_demand(timestamp_s, demand_qps)
        self.estimator.observe(demand_qps)

    def provisioning_target_qps(self) -> float:
        """Demand the next plan should be provisioned for (quantised EWMA estimate).

        The estimate ``t`` is rounded up to a multiple of the quantum
        ``max(demand_quantum_qps, 0.15 t)``.  While ``demand_quantum_qps``
        dominates (``t`` below ``demand_quantum_qps / 0.15``, 133 1/3 QPS at
        the default 20) this gives a few distinct levels.  Above that,
        ``ceil(t / 0.15 t) * 0.15 t`` is exactly ``1.05 t``: the target is
        a fixed 5% margin over the estimate, every estimate gets its own
        target, and the plan cache only hits on a repeated estimate.
        """
        target = max(self.estimator.estimate(), self.min_demand_qps)
        quantum = max(self.demand_quantum_qps, 0.15 * target)
        if quantum > 0:
            target = math.ceil(target / quantum) * quantum
        return target

    # -- invocation logic -------------------------------------------------------
    def should_reallocate(self, now_s: float) -> bool:
        """Periodic invocation plus the significant-demand-change trigger."""
        if self.current_plan is None or self._last_invocation_s is None:
            return True
        if now_s - self._last_invocation_s >= self.invocation_interval_s:
            return True
        if self._last_planned_demand:
            # "Significant change" compares the current smoothed estimate with
            # the demand the active plan was provisioned for (Section 4.2).
            estimate = max(self.estimator.estimate(), self.min_demand_qps)
            change = abs(estimate - self._last_planned_demand) / max(self._last_planned_demand, 1e-9)
            if change >= self.reallocation_threshold:
                return True
        return False

    def allocate(self, now_s: float, demand_qps: Optional[float] = None) -> AllocationPlan:
        """Produce a new allocation plan for the current (or given) demand.

        To avoid thrashing the cluster (every plan switch can force model
        swaps with multi-second load times), the freshly solved plan only
        replaces the active plan when it is materially different: the active
        plan can no longer cover the target demand, workers can be freed, the
        scaling mode changes, or accuracy improves by more than the configured
        margin.
        """
        self.stats.invocations += 1
        target = float(demand_qps) if demand_qps is not None else self.provisioning_target_qps()
        target = max(target, self.min_demand_qps)

        cache_key = self._cache_key(target)
        cached = self._plan_cache.get(cache_key)
        if cached is not None:
            self.stats.cache_hits += 1
            candidate = cached
        else:
            candidate = self._solve(target)
            self._remember(cache_key, candidate)

        plan = candidate if self._should_switch(candidate, target) else self.current_plan
        assert plan is not None
        self._last_invocation_s = now_s
        self._last_planned_demand = target
        self.current_plan = plan
        self.metadata.set_plan(plan)
        self._update_stats(plan)
        return plan

    def _should_switch(self, candidate: AllocationPlan, target_qps: float) -> bool:
        current = self.current_plan
        if current is None:
            return True
        if not current.feasible:
            return True
        if target_qps > current.demand_qps + 1e-9:
            return True  # the active plan was provisioned for less demand
        if candidate.mode != current.mode:
            return True
        if candidate.total_workers < current.total_workers and target_qps <= 0.7 * current.demand_qps:
            # Hardware scale-down frees servers, but only when demand has
            # dropped well below what the active plan was provisioned for --
            # the hysteresis prevents oscillating scale-down/scale-up cycles
            # (each cycle pays multi-second model-load penalties).
            return True
        if candidate.expected_accuracy > current.expected_accuracy + self.accuracy_improvement_margin:
            return True  # accuracy can be improved meaningfully
        return False

    # -- internals ------------------------------------------------------------
    def _problem(self) -> AllocationProblem:
        """The one allocation problem of this manager, at the Metadata Store's current multiplier estimates."""
        if self._allocation_problem is None:
            self._allocation_problem = AllocationProblem(
                pipeline=self.pipeline,
                num_workers=self.num_workers,
                latency_slo_ms=self.latency_slo_ms,
                communication_latency_ms=self.communication_latency_ms,
                batch_sizes=self.batch_sizes,
                utilization_target=self.utilization_target,
                solver_options=self.solver_options,
            )
        self._allocation_problem.multiplicative_factors = self.metadata.multiplier_estimates()
        return self._allocation_problem

    def _solve(self, target_qps: float) -> AllocationPlan:
        problem = self._problem()
        ended_before = problem.hardware_lp_infeasible
        preferred = None
        if self.current_plan is not None:
            # Bias the accuracy-scaling MILP toward the incumbent plan's
            # variants so consecutive plans stay similar (fewer model swaps).
            preferred = {a.variant_name for a in self.current_plan.allocations}
        recent = frozenset().union(*self._recent_configs)
        plan = problem.solve(target_qps, preferred_variants=preferred, recent_configs=recent)
        self.stats.milp_solves += 1
        self.stats.hardware_lp_infeasible += problem.hardware_lp_infeasible - ended_before
        incumbent = plan.solver_info.get("incumbent")
        if incumbent is not None:
            self.stats.incumbents[incumbent] += 1
        self._recent_configs.append(frozenset((a.task, a.variant_name, a.batch_size) for a in plan.allocations))
        return plan

    def _cache_key(self, target_qps: float) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
        return (round(target_qps, 3), multiplier_fingerprint(self.metadata.multiplier_estimates()))

    def _remember(self, key, plan: AllocationPlan) -> None:
        if len(self._plan_cache) >= self.plan_cache_size:
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = plan

    def _update_stats(self, plan: AllocationPlan) -> None:
        if not plan.feasible:
            self.stats.infeasible_plans += 1
        elif plan.mode == HARDWARE_SCALING:
            self.stats.hardware_plans += 1
        elif plan.mode == ACCURACY_SCALING:
            self.stats.accuracy_plans += 1
