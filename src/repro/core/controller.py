"""The Controller: Loki's control plane as a facade over the unified engine.

Section 3 of the paper describes the Controller as the component that owns the
Metadata Store and periodically runs the Resource Manager (every 10 s) and the
Load Balancer (every routing refresh interval, and whenever the allocation
plan changes).  The periodic loop itself — plan diffing, worker-state
expansion, routing refresh — lives in
:class:`repro.control.engine.ControlPlaneEngine`; this module wires that
engine with Loki's policies: the two-step MILP allocator
(:class:`repro.control.policies.LokiAllocationPolicy` wrapping the
:class:`ResourceManager`) and a configurable routing policy (the paper's
MostAccurateFirst by default).

The simulator's frontend and workers report demand and multiplicative-factor
observations through the same methods a real deployment would use
(heartbeats), and the pre-refactor public API (``metadata``,
``resource_manager``, ``load_balancer``, ``plan_changes``...) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.allocation import AllocationPlan
from repro.core.load_balancer import LoadBalancer, RoutingPlan, WorkerState
from repro.core.metadata import MetadataStore
from repro.core.pipeline import Pipeline
from repro.core.resource_manager import ResourceManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.engine import ControlPlaneEngine
    from repro.telemetry import TelemetryRegistry

__all__ = ["ControllerConfig", "Controller"]


@dataclass
class ControllerConfig:
    """Tunable knobs of the Loki control plane.

    The defaults follow the paper's experimental setup: a 10-second Resource
    Manager invocation interval, a 1-second Load Balancer refresh, an SLO of
    250 ms and a 20-worker cluster.
    """

    num_workers: int = 20
    latency_slo_ms: float = 250.0
    communication_latency_ms: float = 2.0
    reallocation_interval_s: float = 10.0
    routing_refresh_interval_s: float = 1.0
    ewma_alpha: float = 0.5
    headroom: float = 1.1
    demand_quantum_qps: float = 20.0
    reallocation_threshold: float = 0.25
    utilization_target: float = 0.75
    batch_sizes: Optional[Tuple[int, ...]] = None
    drop_policy: str = "opportunistic_rerouting"
    #: routing-table generation algorithm (see repro.control.routing)
    routing_policy: str = "most_accurate_first"
    #: HiGHS options for the allocation MILPs (e.g. ``{"time_limit": 30.0}``);
    #: ``None`` selects :data:`repro.solver.DEFAULT_SOLVER_OPTIONS`.  For
    #: machine-load-independent (reproducible) plans use a deterministic work
    #: limit instead of a wall clock: ``{"time_limit": None, "node_limit": 10_000}``.
    solver_options: Optional[Dict[str, object]] = None
    min_demand_qps: float = 1.0


class Controller:
    """Owns the control-plane components and exposes the heartbeat/reporting API."""

    def __init__(self, pipeline: Pipeline, config: Optional[ControllerConfig] = None):
        # Imported here (not at module level): repro.control imports repro.core,
        # so a module-level import would create a cycle on `import repro.control`.
        from repro.control.engine import ControlPlaneEngine
        from repro.control.policies import LokiAllocationPolicy

        self.pipeline = pipeline
        self.config = config or ControllerConfig()
        self.metadata = MetadataStore(pipeline)
        self.resource_manager = ResourceManager(
            pipeline=pipeline,
            num_workers=self.config.num_workers,
            metadata=self.metadata,
            latency_slo_ms=self.config.latency_slo_ms,
            communication_latency_ms=self.config.communication_latency_ms,
            batch_sizes=self.config.batch_sizes,
            invocation_interval_s=self.config.reallocation_interval_s,
            ewma_alpha=self.config.ewma_alpha,
            headroom=self.config.headroom,
            demand_quantum_qps=self.config.demand_quantum_qps,
            reallocation_threshold=self.config.reallocation_threshold,
            min_demand_qps=self.config.min_demand_qps,
            utilization_target=self.config.utilization_target,
            solver_options=self.config.solver_options,
        )
        self.engine: "ControlPlaneEngine" = ControlPlaneEngine(
            pipeline,
            LokiAllocationPolicy(self.resource_manager),
            self.config.routing_policy,
            num_workers=self.config.num_workers,
            latency_slo_ms=self.config.latency_slo_ms,
            reallocation_interval_s=self.config.reallocation_interval_s,
            routing_refresh_interval_s=self.config.routing_refresh_interval_s,
            ewma_alpha=self.config.ewma_alpha,
            demand_quantum_qps=self.config.demand_quantum_qps,
            min_demand_qps=self.config.min_demand_qps,
        )

    # -- reporting API (frontend / worker heartbeats) --------------------------
    def report_demand(self, timestamp_s: float, demand_qps: float) -> None:
        """Frontend demand report for the last measurement interval."""
        self.engine.report_demand(timestamp_s, demand_qps)

    def report_multiplier(self, variant_name: str, observed_factor: float) -> None:
        """Worker heartbeat: observed multiplicative factor for one variant."""
        self.engine.report_multiplier(variant_name, observed_factor)

    # -- periodic control loop ---------------------------------------------------
    def step(self, now_s: float, force: bool = False) -> Tuple[Optional[AllocationPlan], Optional[RoutingPlan]]:
        """Run one control-loop tick: re-allocate and/or refresh routing as needed."""
        return self.engine.step(now_s, force=force)

    def attach_telemetry(self, registry: "TelemetryRegistry") -> None:
        self.engine.attach_telemetry(registry)

    def attach_cluster_state(self, provider) -> None:
        """Forward the live cluster-state provider to the unified engine."""
        self.engine.attach_cluster_state(provider)

    # -- engine state (pre-refactor API) -----------------------------------------
    @property
    def load_balancer(self) -> LoadBalancer:
        return self.engine.load_balancer

    @property
    def current_plan(self) -> Optional[AllocationPlan]:
        return self.engine.current_plan

    @property
    def current_routing(self) -> Optional[RoutingPlan]:
        return self.engine.current_routing

    @property
    def current_workers(self) -> List[WorkerState]:
        return self.engine.current_workers

    @property
    def plan_changes(self) -> int:
        return self.engine.plan_changes

    # -- queries -------------------------------------------------------------------
    @property
    def active_workers(self) -> int:
        return self.engine.active_workers

    @property
    def expected_accuracy(self) -> float:
        return self.engine.expected_accuracy

    def latency_budget_ms(self, task: str, variant_name: str, batch_size: int) -> float:
        """Per-task latency budget derived from the plan's configured batch size."""
        return self.engine.latency_budget_ms(task, variant_name, batch_size)
