"""Scenario specifications: one declarative object per simulated situation.

A :class:`ScenarioSpec` composes everything one simulation run needs -- the
pipeline, the serving system (control plane), the demand trace, the arrival
process, the content model, the drop policy and any injected faults -- into a
single picklable value.  "As many scenarios as you can imagine" then becomes a
registry entry (see :mod:`repro.scenarios.registry`) instead of a new
experiment script, and the sweep runner can fan ``scenario x seed`` grids
across processes because specs travel over pickle.

``pipeline`` and ``trace`` accept either a registry name (resolved through
:func:`repro.zoo.build_pipeline` / the trace factory table) or an already
constructed object, so experiment harnesses with bespoke traces reuse the same
machinery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.baselines import BaselineControlPlane, InferLineControlPlane, ProteusControlPlane
from repro.core import Controller, ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.core.pipeline import Pipeline
from repro.scenarios.faults import FaultSpec, apply_trace_faults, schedule_runtime_faults
from repro.simulator import ServingSimulation, SimulationConfig, SimulationSummary
from repro.workloads import (
    Trace,
    azure_like_trace,
    constant_trace,
    ramp_trace,
    scale_trace_to_capacity,
    step_trace,
    twitter_like_trace,
)
from repro.zoo import build_pipeline

__all__ = [
    "ScenarioSpec",
    "SYSTEM_FACTORIES",
    "TRACE_FACTORIES",
    "make_loki",
    "make_inferline",
    "make_proteus",
    "make_slo_feedback",
]


def make_loki(pipeline: Pipeline, num_workers: int, slo_ms: float, **overrides) -> Controller:
    """Loki's control plane with the experiment defaults.

    The experiment traces are heavily time-compressed relative to the paper's
    full-day traces (minutes instead of hours), so demand moves much faster
    between Resource Manager invocations; a slightly larger provisioning
    headroom and a more sensitive significant-change trigger compensate.
    """
    config = ControllerConfig(
        num_workers=num_workers,
        latency_slo_ms=slo_ms,
        headroom=overrides.pop("headroom", 1.2),
        reallocation_threshold=overrides.pop("reallocation_threshold", 0.15),
        demand_quantum_qps=overrides.pop("demand_quantum_qps", 20.0),
        **overrides,
    )
    return Controller(pipeline, config)


def make_inferline(pipeline: Pipeline, num_workers: int, slo_ms: float, **overrides) -> InferLineControlPlane:
    return InferLineControlPlane(pipeline, num_workers, latency_slo_ms=slo_ms, **overrides)


def make_proteus(pipeline: Pipeline, num_workers: int, slo_ms: float, **overrides) -> ProteusControlPlane:
    return ProteusControlPlane(pipeline, num_workers, latency_slo_ms=slo_ms, **overrides)


def make_slo_feedback(pipeline: Pipeline, num_workers: int, slo_ms: float, **overrides) -> BaselineControlPlane:
    """SLO-feedback allocation behind the unified engine (feedback-control API).

    Controller gains and limits (``kp``/``ki``/``scale_max``...) pass through
    ``control_overrides`` to :class:`~repro.control.policies.SLOFeedbackPolicy`;
    everything else goes to the engine.  ``kp=0, ki=0`` degenerates to the
    same MILP allocator with no feedback (interval-driven only, no urgent
    reallocations) — the "static allocation" baseline the pinned comparisons
    use.  Both run on the paper's 10 s reallocation interval; the feedback
    policy earns its keep by reallocating out-of-band (``urgent_interval_s``)
    when the observed SLO error spikes.
    """
    from repro.control.policies import SLOFeedbackPolicy

    policy_keys = (
        "kp",
        "ki",
        "violation_weight",
        "violation_target",
        "error_clamp",
        "integral_clamp",
        "scale_min",
        "scale_max",
        "scale_quantum",
        "urgent_error",
        "urgent_interval_s",
        "communication_latency_ms",
        "solver_backend",
    )
    policy_kwargs = {key: overrides.pop(key) for key in policy_keys if key in overrides}
    return BaselineControlPlane(
        pipeline,
        num_workers,
        latency_slo_ms=slo_ms,
        allocation_policy=SLOFeedbackPolicy(**policy_kwargs),
        **overrides,
    )


#: The serving systems a scenario can select (the three compared in Figs 5/6,
#: plus the feedback-control study's SLO-feedback allocator).
SYSTEM_FACTORIES: Dict[str, Callable] = {
    "loki": make_loki,
    "inferline": make_inferline,
    "proteus": make_proteus,
    "slo_feedback": make_slo_feedback,
}

#: Named trace generators a scenario can select.
TRACE_FACTORIES: Dict[str, Callable[..., Trace]] = {
    "azure_like": azure_like_trace,
    "twitter_like": twitter_like_trace,
    "constant": constant_trace,
    "ramp": ramp_trace,
    "step": step_trace,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully specified, picklable simulation scenario."""

    name: str
    description: str = ""
    #: pipeline registry name (repro.zoo) or a prebuilt Pipeline
    pipeline: Union[str, Pipeline] = "traffic_analysis"
    pipeline_params: Dict[str, object] = field(default_factory=dict)
    #: serving system driving the cluster (key of SYSTEM_FACTORIES)
    system: str = "loki"
    control_overrides: Dict[str, object] = field(default_factory=dict)
    #: trace factory name (TRACE_FACTORIES) or a prebuilt Trace
    trace: Union[str, Trace] = "azure_like"
    trace_params: Dict[str, object] = field(default_factory=dict)
    #: rescale the trace peak to this multiple of the hardware-scaling
    #: capacity (the paper's overload setup); None leaves the trace as built
    peak_over_hardware: Optional[float] = None
    num_workers: int = 20
    slo_ms: float = 250.0
    arrival_process: str = "poisson"
    arrival_params: Dict[str, object] = field(default_factory=dict)
    content_mode: str = "poisson"
    #: None selects the system default (Loki: opportunistic rerouting,
    #: baselines: no early dropping), matching the paper's comparisons
    drop_policy: Optional[str] = None
    sim_overrides: Dict[str, object] = field(default_factory=dict)
    faults: Tuple[FaultSpec, ...] = ()
    #: request-level resilience knobs (see
    #: :class:`repro.simulator.resilience.ResilienceConfig`) as a plain kwargs
    #: dict so specs stay picklable; ``None`` (default) leaves the layer off
    #: and the run bit-identical to a resilience-free build
    resilience: Optional[Dict[str, object]] = None

    # -- construction ---------------------------------------------------------
    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def build_pipeline(self) -> Pipeline:
        if isinstance(self.pipeline, Pipeline):
            return self.pipeline
        params = dict(self.pipeline_params)
        params.setdefault("latency_slo_ms", self.slo_ms)
        return build_pipeline(self.pipeline, **params)

    def build_trace(self, pipeline: Pipeline) -> Trace:
        if isinstance(self.trace, Trace):
            trace = self.trace
        else:
            if self.trace not in TRACE_FACTORIES:
                raise KeyError(f"unknown trace {self.trace!r}; available: {sorted(TRACE_FACTORIES)}")
            trace = TRACE_FACTORIES[self.trace](**self.trace_params)
        if self.peak_over_hardware is not None:
            problem = AllocationProblem(pipeline, num_workers=self.num_workers, latency_slo_ms=self.slo_ms)
            hardware_capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
            trace = scale_trace_to_capacity(trace, hardware_capacity, peak_fraction=self.peak_over_hardware)
        return apply_trace_faults(trace, self.faults)

    def resolved(self) -> "ScenarioSpec":
        """A copy with the pipeline and trace materialized.

        Building the trace of a ``peak_over_hardware`` spec solves a capacity
        MILP that depends only on the spec, not the seed -- the sweep runner
        resolves each spec once in the parent process so a seed fan-out does
        not repeat that solve in every job.  Demand-surge faults are folded
        into the materialized trace (and dropped from ``faults`` so they are
        not applied twice); runtime faults are kept.
        """
        pipeline = self.build_pipeline()
        trace = self.build_trace(pipeline)
        return dataclasses.replace(
            self,
            pipeline=pipeline,
            trace=trace,
            peak_over_hardware=None,
            faults=tuple(f for f in self.faults if f.kind != "demand_surge"),
        )

    def resolved_drop_policy(self) -> str:
        if self.drop_policy is not None:
            return self.drop_policy
        return "opportunistic_rerouting" if self.system == "loki" else "no_early_dropping"

    def build(self, seed: int = 0) -> ServingSimulation:
        """Construct the ready-to-run simulation for one seed."""
        if self.system not in SYSTEM_FACTORIES:
            raise KeyError(f"unknown system {self.system!r}; available: {sorted(SYSTEM_FACTORIES)}")
        pipeline = self.build_pipeline()
        trace = self.build_trace(pipeline)
        control_plane = SYSTEM_FACTORIES[self.system](
            pipeline, self.num_workers, self.slo_ms, **self.control_overrides
        )
        if "seed" in self.sim_overrides:
            # The seed is the per-run fan-out axis: silently pinning it via
            # sim_overrides would make every run of a multi-seed sweep
            # identical.
            raise ValueError("sim_overrides cannot set 'seed'; pass it to build()/run()")
        config_kwargs = dict(
            num_workers=self.num_workers,
            latency_slo_ms=self.slo_ms,
            seed=seed,
            arrival_process=self.arrival_process,
            arrival_params=dict(self.arrival_params),
            content_mode=self.content_mode,
            drop_policy=self.resolved_drop_policy(),
            resilience=dict(self.resilience) if self.resilience is not None else None,
        )
        # sim_overrides wins over spec-level fields (e.g. drop_policy),
        # matching its name.
        config_kwargs.update(self.sim_overrides)
        config = SimulationConfig(**config_kwargs)
        simulation = ServingSimulation(pipeline, control_plane, trace, config)
        schedule_runtime_faults(simulation, self.faults)
        return simulation

    def run(self, seed: int = 0) -> SimulationSummary:
        """Build and execute the scenario for one seed."""
        return self.build(seed).run()
