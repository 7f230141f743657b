"""An independent check that an allocation plan satisfies the full model.

The accuracy-scaling MILP is solved over a reduced path set (see "Path
reduction" in :mod:`repro.core.allocation`), so the solver's word that a plan
is feasible covers only the reduced model.  :func:`validate_plan` re-derives
the constraints of the *full* model from the pipeline, the profiles, the
problem's full :meth:`~repro.core.allocation.AllocationProblem.config_paths`
and the plan itself, without touching any solver object.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.core.allocation import AllocationPlan, AllocationProblem, Configuration

__all__ = ["PlanValidationError", "validate_plan"]

#: relative tolerance on the per-branch ratio sums and on capacity vs load
#: (the solver's own row tolerance leaves flows of ~1e-9 x demand on unhosted
#: variants, so the load check is relative to the larger of capacity and demand)
RELATIVE_TOLERANCE = 1e-6


class PlanValidationError(AssertionError):
    """A plan violates a constraint of the full allocation model."""


def validate_plan(problem: AllocationProblem, plan: AllocationPlan) -> None:
    """Raise :class:`PlanValidationError` on the first constraint ``plan`` violates.

    Checks, in order:

    1. the plan uses at most ``problem.num_workers`` replicas;
    2. every allocated (task, variant, batch) lies on a latency-feasible path
       of the full model;
    3. for a feasible plan, ``path_ratios`` sum to 1 on every branch;
    4. for a feasible plan, the capacity provisioned per (task, variant)
       (replicas x effective throughput) covers the load the path ratios route
       there: ratio x demand x the hop's multiplier (the upstream variants'
       multiplicative factors and the edges' branch ratios), counted on the
       task's designated branch, the first branch that contains it.  The
       tolerance is relative to the larger of the capacity and the demand.

    An infeasible plan is the best-effort plan: its ratios describe the
    cluster's maximum throughput rather than ``demand_qps``, so only checks 1
    and 2 apply to it.
    """
    pipeline = problem.pipeline
    registry = pipeline.registry

    workers = sum(a.replicas for a in plan.allocations)
    if workers > problem.num_workers:
        raise PlanValidationError(f"plan uses {workers} replicas on a {problem.num_workers}-worker cluster")

    feasible_configs = {config.key for path in problem.config_paths() for config in path.configs}
    for a in plan.allocations:
        if (a.task, a.variant_name, a.batch_size) not in feasible_configs:
            raise PlanValidationError(
                f"{a.task}/{a.variant_name}/b{a.batch_size} lies on no latency-feasible path"
            )

    if not plan.feasible:
        return

    task_paths = [tuple(task_path) for task_path in pipeline.task_paths()]
    branch_of = {task_path: b for b, task_path in enumerate(task_paths)}
    designated: Dict[str, int] = {}
    for b, task_path in enumerate(task_paths):
        for task in task_path:
            designated.setdefault(task, b)

    ratio_sums = [0.0] * len(task_paths)
    load: Dict[Tuple[str, str], float] = defaultdict(float)
    for path_key, ratio in plan.path_ratios.items():
        tasks = tuple(task for task, _ in path_key)
        if tasks not in branch_of:
            raise PlanValidationError(f"path {path_key} follows no root-to-sink branch")
        branch = branch_of[tasks]
        ratio_sums[branch] += ratio
        multiplier = 1.0
        for hop, (task, variant_name) in enumerate(path_key):
            if hop > 0:
                upstream_task, upstream_variant = path_key[hop - 1]
                multiplier *= (
                    problem.multiplicative_factor(registry.variant(upstream_variant))
                    * pipeline.edge(upstream_task, task).branch_ratio
                )
            if designated[task] == branch:
                load[task, variant_name] += ratio * plan.demand_qps * multiplier

    for branch, total in enumerate(ratio_sums):
        if abs(total - 1.0) > RELATIVE_TOLERANCE:
            raise PlanValidationError(f"path ratios of branch {task_paths[branch]} sum to {total!r}, not 1")

    capacity: Dict[Tuple[str, str], float] = defaultdict(float)
    for a in plan.allocations:
        config = Configuration(task=a.task, variant=registry.variant(a.variant_name), batch_size=a.batch_size)
        capacity[a.task, a.variant_name] += a.replicas * problem.effective_throughput_qps(config)
    for (task, variant_name), routed in load.items():
        provisioned = capacity.get((task, variant_name), 0.0)
        if routed - provisioned > RELATIVE_TOLERANCE * max(provisioned, plan.demand_qps):
            raise PlanValidationError(
                f"{task}/{variant_name} is routed {routed!r} qps but provisioned {provisioned!r} qps"
            )
