"""Simulation runner: wires a control plane, a workload and the cluster together.

:class:`ServingSimulation` is the integration point used by the experiment
harness, the examples and the end-to-end tests.  It is control-plane agnostic:
anything exposing the small Controller protocol (``report_demand``,
``report_multiplier``, ``step``) can drive the cluster, which is how the
InferLine- and Proteus-style baselines are simulated on exactly the same
substrate as Loki.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.allocation import AllocationPlan
from repro.core.dropping import DropPolicy, make_drop_policy
from repro.core.load_balancer import BackupEntry, RoutingPlan, RoutingTable
from repro.core.pipeline import Pipeline
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import ArrivalEvent, CallbackEvent, ControlTickEvent, DeliveryEvent
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
    """The protocol a control plane must implement to drive the simulator."""

    def report_demand(self, timestamp_s: float, demand_qps: float) -> None:
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
    max_events: Optional[int] = None
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
        self.rng = np.random.default_rng(self.config.seed)
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
        self._tele_batches = self.telemetry.counter("worker.batches")
        self._tele_batch_queries = self.telemetry.counter("worker.processed_queries")
        self._tele_active_workers = self.telemetry.gauge("cluster.active_workers")
        if hasattr(control_plane, "attach_telemetry"):
            control_plane.attach_telemetry(self.telemetry)
        self.cluster = Cluster(self, self.config.num_workers)
        # Feedback-control plumbing: control planes that understand live
        # cluster state (the unified engine and its facades) get the cluster
        # as their ClusterStateProvider — ControlContext snapshots each
        # control period, queue_snapshot probes at dispatch time.
        if hasattr(control_plane, "attach_cluster_state"):
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
        self._empty_table = RoutingTable()
        self.dropped_queries = 0
        self.forwarded_queries = 0
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
        self.engine.run(until_s=horizon, max_events=self.config.max_events)
        summary = self.metrics.summary()
        summary.telemetry = self.telemetry.snapshot()
        timeline = self.telemetry.get("faults.timeline")
        if timeline is not None:
            summary.fault_timeline = list(timeline.events)
        return summary

    #: arrivals materialized into event objects per calendar load; the sampled
    #: time array is always whole-trace (8 bytes/arrival), but the ~100-byte
    #: Python event objects are created lazily so day-long high-rate traces
    #: do not hold tens of millions of live events at once
    ARRIVAL_CHUNK = 200_000

    def _schedule_workload(self) -> None:
        """Pre-sample every arrival of the trace and bulk-load the calendar.

        The whole trace's arrival times come from a handful of vectorized RNG
        draws (see :meth:`ArrivalProcess.sample_trace`); each arrival becomes
        one ``__slots__`` :class:`ArrivalEvent` and the calendar is built with
        a single heapify instead of one closure-scheduling call per query.
        Traces beyond :attr:`ARRIVAL_CHUNK` arrivals are materialized in
        windows: a refill callback at the last arrival of each window bulk-
        loads the next one, keeping calendar memory bounded.
        """
        self._arrival_times = self.arrival_process.sample_trace(self.trace.qps, self.rng)
        self._arrival_cursor = 0
        # One control tick just before the end of every trace second.
        self.engine.preload(
            [ControlTickEvent(float(second + 1) - 1e-6, self) for second in range(self.trace.duration_s)]
        )
        self._preload_arrival_chunk()

    def _preload_arrival_chunk(self) -> None:
        start = self._arrival_cursor
        total = self._arrival_times.shape[0]
        if start >= total:
            return
        end = min(start + self.ARRIVAL_CHUNK, total)
        self._arrival_cursor = end
        chunk = self._arrival_times[start:end].tolist()
        # map + repeat constructs the chunk's events with C-level iteration.
        events = list(map(ArrivalEvent, chunk, repeat(self.frontend)))
        if end < total:
            # Refill at this chunk's last arrival: it is appended after that
            # arrival, so the FIFO tie-break runs it once the chunk is spent.
            events.append(CallbackEvent(chunk[-1], self._preload_arrival_chunk))
        self.engine.preload(events)

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
        if hasattr(self.control_plane, "report_task_demand"):
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
    def new_intermediate_query(
        self, request: Request, task: str, now_s: float, accuracy_so_far: float
    ) -> IntermediateQuery:
        query = IntermediateQuery(self._next_query_id, request, task, now_s, accuracy_so_far)
        self._next_query_id += 1
        return query

    def routing_table_for(self, logical_id: str) -> RoutingTable:
        if self.routing_plan is None:
            return self._empty_table
        return self.routing_plan.table_for(logical_id)

    def backups_for(self, task: str) -> List[BackupEntry]:
        if self.routing_plan is None:
            return []
        return self.routing_plan.backups_for(task)

    def forward_query(self, query: IntermediateQuery, logical_worker_id: str) -> None:
        """Send a query to the physical worker hosting ``logical_worker_id``."""
        worker = self.cluster.resolve(logical_worker_id)
        if worker is None:
            self.notify_drop(query, reason=f"logical worker {logical_worker_id} not hosted")
            return
        self.forwarded_queries += 1
        self._tele_forwarded.value += 1
        delay = self.network.sample_delay_s(self.rng)
        self.engine.schedule_event(DeliveryEvent(self.engine.now_s + delay, worker, query))
        resilience = self.resilience
        if resilience is not None and resilience.hedging:
            resilience.maybe_arm_hedge(query, logical_worker_id)

    def notify_sink(self, query: IntermediateQuery) -> None:
        """A query finished the last task of its path; return the result to the Frontend."""
        resilience = self.resilience
        if resilience is not None and resilience.absorb_sink(query):
            return  # hedge loser or timed-out straggler: already accounted
        delay = self.network.sample_delay_s(self.rng)
        completion_time = self.engine.now_s + delay
        request = query.request
        request.record_sink_completion(completion_time, query.accuracy_so_far)
        if request.status is not RequestStatus.IN_FLIGHT:
            self.metrics.record_request_finished(request)

    def notify_drop(self, query: IntermediateQuery, reason: str = "") -> None:
        resilience = self.resilience
        if resilience is not None and resilience.on_query_drop(query, reason):
            return  # retried, hedge-masked or timed-out: not a real drop
        self.dropped_queries += 1
        self._tele_dropped.value += 1
        if reason:
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
            if reason == "worker failed":
                self._tele_dropped_on_fault.value += 1
        request = query.request
        request.record_drop(self.engine.now_s)
        if request.status is not RequestStatus.IN_FLIGHT:
            self.metrics.record_request_finished(request)

    def check_request(self, request: Request) -> None:
        if request.is_finished:
            resilience = self.resilience
            if resilience is not None and resilience.absorbed(request):
                return  # timed out earlier: metrics already recorded once
            self.metrics.record_request_finished(request)
