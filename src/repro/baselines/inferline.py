"""InferLine-style baseline: pipeline-aware hardware scaling, no accuracy scaling.

InferLine [Crankshaw et al., SoCC '20] provisions inference pipelines
cost-efficiently but requires the client to pin a single model variant per
task; it scales replicas and batch sizes, never accuracy.  We reproduce that
policy by restricting the pipeline to one variant per task (the most accurate
one by default, which is what a quality-seeking client would pin) and running
the same minimum-worker MILP Loki uses for its hardware-scaling step.  When
demand exceeds what the cluster can serve with the pinned variants, the best
the system can do is provision for its maximum throughput -- the regime in
which its SLO violations climb in Figures 5 and 6.

The plan construction lives in :class:`InferLineAllocationPolicy`, an
:class:`~repro.control.policies.AllocationPolicy`;
:class:`InferLineControlPlane` is the control-plane engine built with it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Optional

from repro.control.engine import ControlPlaneEngine
from repro.control.policies import AllocationPolicy
from repro.core.allocation import AllocationPlan, AllocationProblem
from repro.core.pipeline import Edge, Pipeline, Task
from repro.core.profiles import ProfileRegistry

__all__ = ["InferLineAllocationPolicy", "InferLineControlPlane", "restrict_pipeline_to_variants"]


def restrict_pipeline_to_variants(pipeline: Pipeline, selection: Mapping[str, str]) -> Pipeline:
    """Build a copy of ``pipeline`` whose registry contains only the selected variant per task."""
    registry = ProfileRegistry()
    for task_name in pipeline.tasks:
        if task_name not in selection:
            raise KeyError(f"no variant selected for task {task_name!r}")
        variant = pipeline.registry.variant(selection[task_name])
        if pipeline.registry.task_of(variant.name) != task_name:
            raise ValueError(f"variant {variant.name!r} does not belong to task {task_name!r}")
        registry.register(task_name, variant)
    tasks = [Task(name, task.description) for name, task in pipeline.tasks.items()]
    edges = [Edge(e.parent, e.child, e.branch_ratio) for e in pipeline.edges]
    return Pipeline(f"{pipeline.name}|restricted", tasks, edges, registry, latency_slo_ms=pipeline.latency_slo_ms)


class InferLineAllocationPolicy(AllocationPolicy):
    """Hardware scaling only, with a client-pinned variant per task."""

    def __init__(
        self,
        variant_selection: Optional[Mapping[str, str]] = None,
        communication_latency_ms: float = 2.0,
    ):
        super().__init__()
        self._requested_selection = variant_selection
        self.variant_selection: Dict[str, str] = {}
        self.restricted_pipeline: Optional[Pipeline] = None
        self.communication_latency_ms = float(communication_latency_ms)

    def bind(self, engine) -> None:
        super().bind(engine)
        pipeline = engine.pipeline
        if self._requested_selection is None:
            self.variant_selection = {
                task: pipeline.registry.most_accurate(task).name for task in pipeline.tasks
            }
        else:
            self.variant_selection = dict(self._requested_selection)
        self.restricted_pipeline = restrict_pipeline_to_variants(pipeline, self.variant_selection)

    def _problem(self) -> AllocationProblem:
        engine = self.engine
        return AllocationProblem(
            pipeline=self.restricted_pipeline,
            num_workers=engine.num_workers,
            latency_slo_ms=engine.latency_slo_ms,
            communication_latency_ms=self.communication_latency_ms,
            multiplicative_factors=engine.multiplier_estimates,
        )

    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        """Minimise workers for the pinned variants; fall back to max-throughput provisioning."""
        problem = self._problem()
        plan = problem.solve_hardware_scaling(target_demand_qps)
        if plan is not None:
            return replace(plan, pipeline_name=self.engine.pipeline.name)
        # Demand exceeds the pinned-variant capacity of the whole cluster: the
        # system keeps serving at its maximum throughput and the excess load
        # shows up as queueing delay and SLO violations.
        capacity = problem.max_supported_demand(restrict_to_best=True)
        return replace(
            capacity.plan,
            pipeline_name=self.engine.pipeline.name,
            mode="hardware",
            demand_qps=target_demand_qps,
            feasible=False,
            solver_info={**capacity.plan.solver_info, "max_supported_qps": capacity.max_demand_qps},
        )


class InferLineControlPlane(ControlPlaneEngine):
    """The control-plane engine with InferLine's allocation policy."""

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int,
        variant_selection: Optional[Mapping[str, str]] = None,
        communication_latency_ms: float = 2.0,
        **kwargs,
    ):
        policy = InferLineAllocationPolicy(
            variant_selection=variant_selection,
            communication_latency_ms=communication_latency_ms,
        )
        super().__init__(pipeline, policy, num_workers=num_workers, **kwargs)
