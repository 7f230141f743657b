"""The Controller: Loki's control plane on the unified engine.

Section 3 of the paper describes the Controller as the component that owns the
Metadata Store and periodically runs the Resource Manager (every 10 s) and the
Load Balancer (every routing refresh interval, and whenever the allocation
plan changes).  :class:`Controller` is a
:class:`repro.control.engine.ControlPlaneEngine`: the engine runs that
periodic loop — plan diffing, worker-state expansion, routing refresh — and
the Controller only builds Loki's policies: the two-step MILP allocator
(:class:`repro.control.policies.LokiAllocationPolicy` wrapping the
:class:`ResourceManager`) and a configurable routing policy (the paper's
MostAccurateFirst by default).

The simulator's frontend and workers report demand and multiplicative-factor
observations through the same methods a real deployment would use
(heartbeats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.control.engine import ControlPlaneEngine
from repro.control.policies import LokiAllocationPolicy
from repro.core.metadata import MetadataStore
from repro.core.pipeline import Pipeline
from repro.core.resource_manager import ResourceManager

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
    #: HiGHS options for the allocation MILPs (e.g. ``{"mip_rel_gap": 1e-3}``);
    #: ``None`` selects :data:`repro.solver.DEFAULT_SOLVER_OPTIONS`.
    solver_options: Optional[Dict[str, object]] = None
    min_demand_qps: float = 1.0


class Controller(ControlPlaneEngine):
    """Loki's control plane: the Metadata Store, the Resource Manager and the engine loop."""

    def __init__(self, pipeline: Pipeline, config: Optional[ControllerConfig] = None):
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
        super().__init__(
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
