"""Simulation runner: wires a control plane, a workload and the cluster together.

:class:`ServingSimulation` is the integration point used by the experiment
harness, the examples and the end-to-end tests.  It is control-plane agnostic:
anything exposing the small Controller protocol (``report_demand``,
``report_multiplier``, ``step``) can drive the cluster, which is how the
InferLine- and Proteus-style baselines are simulated on exactly the same
substrate as Loki.

The data plane draws every per-query value from the run's one stream,
:attr:`ServingSimulation.rng`.  Per client arrival the Frontend draws the
route, then the network delay; per finished query a worker draws in the
order :meth:`SimWorker._dispatch <repro.simulator.worker.SimWorker._dispatch>`
documents.  Both run inline, one pass per query, and a test-only copy of the
per-helper paths they replace (``tests/simulator/test_dispatch_reference.py``)
must give bit-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.core.allocation import AllocationPlan
from repro.core.draws import DrawStream
from repro.core.dropping import DropPolicy, make_drop_policy
from repro.core.load_balancer import RoutingPlan
from repro.core.pipeline import Pipeline
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import ArrivalCursor
from repro.simulator.frontend import Frontend
from repro.simulator.metrics import MetricsCollector, SimulationSummary
from repro.simulator.network import NetworkModel
from repro.simulator.resilience import ResilienceConfig, ResilienceManager
from repro.simulator.query import IntermediateQuery, Request, RequestStatus
from repro.telemetry import TelemetryRegistry
from repro.workloads.arrivals import ArrivalProcess, make_arrival_process
from repro.workloads.content import MultiplicativeContentModel
from repro.workloads.traces import Trace

__all__ = ["ControlPlane", "SimulationConfig", "ServingSimulation"]


class ControlPlane(Protocol):
    """The protocol a control plane must implement to drive the simulator.

    :class:`~repro.control.engine.ControlPlaneEngine` implements it; every
    in-repo serving system is one.
    """

    def attach_telemetry(self, registry: TelemetryRegistry) -> None:
        ...  # pragma: no cover - protocol

    def attach_cluster_state(self, provider: Cluster) -> None:
        ...  # pragma: no cover - protocol

    def report_demand(self, timestamp_s: float, demand_qps: float) -> None:
        ...  # pragma: no cover - protocol

    def report_task_demand(self, task_name: str, demand_qps: float) -> None:
        ...  # pragma: no cover - protocol

    def report_multiplier(self, variant_name: str, observed_factor: float) -> None:
        ...  # pragma: no cover - protocol

    def step(self, now_s: float, force: bool = False) -> Tuple[Optional[AllocationPlan], Optional[RoutingPlan]]:
        ...  # pragma: no cover - protocol


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    num_workers: int = 20
    latency_slo_ms: float = 250.0
    control_interval_s: float = 1.0
    heartbeat_interval_s: float = 5.0
    metrics_interval_s: float = 1.0
    arrival_process: str = "poisson"
    #: constructor parameters of the arrival process (see workloads.arrivals)
    arrival_params: Dict[str, object] = field(default_factory=dict)
    drop_policy: str = "opportunistic_rerouting"
    content_mode: str = "poisson"
    network_latency_ms: float = 2.0
    network_jitter_ms: float = 0.5
    seed: int = 0
    #: extra simulated time after the trace ends so in-flight requests can drain
    drain_s: float = 5.0
    #: per-task latency budgets for early dropping are the configured batch
    #: execution time multiplied by this slack, matching the SLO/2 queueing
    #: allowance of Section 4.1 (waiting time assumed equal to processing time)
    budget_slack: float = 2.0
    #: request-level resilience knobs (retries / timeouts / hedging /
    #: failover re-queueing): a :class:`~repro.simulator.resilience.
    #: ResilienceConfig`, or a plain kwargs dict (kept picklable for sweep
    #: workers).  ``None`` (default) disables the layer entirely — no manager
    #: is built, no hook fires, the RNG stream is untouched.
    resilience: Optional[object] = None


class ServingSimulation:
    """One simulation run of a serving system on a demand trace."""

    def __init__(
        self,
        pipeline: Pipeline,
        control_plane: ControlPlane,
        trace: Trace,
        config: Optional[SimulationConfig] = None,
        content_model: Optional[MultiplicativeContentModel] = None,
        drop_policy: Optional[DropPolicy] = None,
        arrival_process: Optional[ArrivalProcess] = None,
    ):
        self.pipeline = pipeline
        self.control_plane = control_plane
        self.trace = trace
        self.config = config or SimulationConfig()
        self.engine = SimulationEngine()
        #: the run's one simulation stream: every data-plane draw reads it,
        #: scalar uniforms and small-mean Poisson counts from its block buffer
        self.rng = DrawStream(np.random.default_rng(self.config.seed))
        self.network = NetworkModel(self.config.network_latency_ms, self.config.network_jitter_ms)
        self.content_model = content_model or MultiplicativeContentModel(mode=self.config.content_mode)
        self.arrival_process = arrival_process or make_arrival_process(
            self.config.arrival_process, **self.config.arrival_params
        )
        self.drop_policy = drop_policy or make_drop_policy(self.config.drop_policy)
        #: one telemetry registry per run: frontend, workers, the metrics
        #: collector and the control plane all record into it, and its
        #: snapshot ships out through ``SimulationSummary.telemetry``
        self.telemetry = TelemetryRegistry()
        self._tele_forwarded = self.telemetry.counter("queries.forwarded")
        self._tele_dropped = self.telemetry.counter("queries.dropped")
        #: opportunistic reroutes to a backup worker (Section 5.2); always
        #: registered, bumped by the workers' forwarding routine
        self._tele_rerouted = self.telemetry.counter("queries.rerouted")
        self._tele_batches = self.telemetry.counter("worker.batches")
        self._tele_batch_queries = self.telemetry.counter("worker.processed_queries")
        self._tele_active_workers = self.telemetry.gauge("cluster.active_workers")
        control_plane.attach_telemetry(self.telemetry)
        self.cluster = Cluster(self, self.config.num_workers)
        # Feedback-control plumbing: the cluster is the control plane's
        # ClusterStateProvider — queue_snapshot probes at dispatch time.
        control_plane.attach_cluster_state(self.cluster)
        self.frontend = Frontend(self, self.config.latency_slo_ms)
        self.metrics = MetricsCollector(
            cluster_size=self.config.num_workers,
            interval_s=self.config.metrics_interval_s,
            max_pipeline_accuracy=pipeline.max_end_to_end_accuracy(),
            telemetry=self.telemetry,
        )
        self.routing_plan: Optional[RoutingPlan] = None
        self.current_plan: Optional[AllocationPlan] = None
        self._next_query_id = 0
        self.drop_reasons: Dict[str, int] = {}
        #: per-task arrivals in the current demand-reporting window (consumed by
        #: pipeline-agnostic control planes through ``report_task_demand``)
        self.task_arrivals: Dict[str, int] = {task: 0 for task in pipeline.tasks}
        #: fault-induced query losses, counted apart from generic drops so
        #: fault-window accounting closes exactly (satellite of the
        #: resilience layer; always registered, only bumped on faults)
        self._tele_dropped_on_fault = self.telemetry.counter("queries.dropped_on_fault")
        #: request-level resilience layer (None = off; every hot-path hook is
        #: a single attribute check in that case)
        res_cfg = self.config.resilience
        if isinstance(res_cfg, dict):
            res_cfg = ResilienceConfig(**res_cfg)
        if res_cfg is not None and res_cfg.enabled:
            self.resilience: Optional[ResilienceManager] = ResilienceManager(self, res_cfg)
        else:
            self.resilience = None

    # ------------------------------------------------------------------ run --
    def run(self) -> SimulationSummary:
        """Execute the whole trace and return the end-of-run summary."""
        self._bootstrap()
        self._schedule_workload()
        horizon = self.trace.duration_s + self.config.drain_s
        self.engine.run(until_s=horizon)
        self.rng.sync()
        summary = self.metrics.summary()
        summary.telemetry = self.telemetry.snapshot()
        timeline = self.telemetry.get("faults.timeline")
        if timeline is not None:
            summary.fault_timeline = list(timeline.events)
        return summary

    def _schedule_workload(self) -> None:
        """Pre-sample every arrival of the trace and load the arrival cursor.

        The whole trace's arrival times come from a handful of vectorized RNG
        draws (see :meth:`ArrivalProcess.sample_trace`).  One control tick is
        preloaded just before the end of every trace second, then one
        :class:`ArrivalCursor` walks the arrival times: the calendar holds one
        arrival entry at a time, and each arrival keeps the sequence number a
        preloaded per-arrival entry would have had.  The stable sort is a
        linear pass on the already-sorted times ``sample_trace`` returns and
        keeps equal times in their sampled order.
        """
        times = self.arrival_process.sample_trace(self.trace.qps, self.rng.generator)
        times = np.sort(times, kind="stable")
        tick = ServingSimulation._control_tick
        self.engine.preload([(float(second + 1) - 1e-6, tick, self) for second in range(self.trace.duration_s)])
        ArrivalCursor(times.tolist(), self.frontend).load(self.engine.queue)

    def _bootstrap(self) -> None:
        """Prime the control plane with the first trace second so a plan exists at t=0."""
        initial_demand = float(self.trace.rate_at(0)) if self.trace.duration_s else 0.0
        self.control_plane.report_demand(0.0, initial_demand)
        plan, routing = self.control_plane.step(0.0, force=True)
        if plan is not None:
            self._apply_plan(plan)
        if routing is not None:
            self.routing_plan = routing
        # Pre-load the initial models: skip the initial load penalty so the
        # system starts warm (the paper's experiments also start from a
        # provisioned cluster).
        for worker in self.cluster.workers:
            worker.available_at_s = 0.0
            worker._maybe_start_batch()

    def _control_tick(self) -> None:
        now = self.engine.now_s
        observed = self.frontend.drain_window_demand()
        self.control_plane.report_demand(now, float(observed))
        for task, count in self.task_arrivals.items():
            self.control_plane.report_task_demand(task, float(count) / self.config.control_interval_s)
            self.task_arrivals[task] = 0
        if int(now) % max(1, int(self.config.heartbeat_interval_s)) == 0:
            for variant_name, factor in self.cluster.heartbeats().items():
                self.control_plane.report_multiplier(variant_name, factor)
        plan, routing = self.control_plane.step(now)
        if plan is not None:
            self._apply_plan(plan)
        if routing is not None:
            self.routing_plan = routing
        self.metrics.record_active_workers(now, self.cluster.active_workers)
        self._tele_active_workers.set(self.cluster.active_workers)

    def _apply_plan(self, plan: AllocationPlan) -> None:
        self.current_plan = plan
        self.cluster.apply_plan(plan, self.pipeline, self.engine.now_s)

    # --------------------------------------------------------------- plumbing --
    @property
    def forwarded_queries(self) -> int:
        """Network hops sent so far: the ``queries.forwarded`` counter."""
        return int(self._tele_forwarded.value)

    @property
    def dropped_queries(self) -> int:
        """Queries dropped so far: the ``queries.dropped`` counter."""
        return int(self._tele_dropped.value)

    def new_intermediate_query(
        self, request: Request, task: str, now_s: float, accuracy_so_far: float
    ) -> IntermediateQuery:
        query = IntermediateQuery(self._next_query_id, request, task, now_s, accuracy_so_far)
        self._next_query_id += 1
        return query

    def notify_drop(self, query: IntermediateQuery, reason: str = "") -> None:
        resilience = self.resilience
        if resilience is not None and resilience.on_query_drop(query, reason):
            return  # retried, hedge-masked or timed-out: not a real drop
        self._tele_dropped.value += 1
        if reason:
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
            if reason == "worker failed":
                self._tele_dropped_on_fault.value += 1
        request = query.request
        request.record_drop(self.engine.now_s)
        if request.status is not RequestStatus.IN_FLIGHT:
            self.metrics.record_request_finished(request)
