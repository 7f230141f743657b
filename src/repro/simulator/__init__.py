"""Discrete-event cluster simulator (the paper's evaluation substrate).

The paper runs a core set of experiments on a 20-GPU prototype and the rest on
a discrete-event simulator extended from Proteus, after validating that the
two agree to within ~2%.  This package is that simulator, built from scratch:

* :mod:`repro.simulator.engine` / :mod:`repro.simulator.events` -- the event
  calendar (the one binary-heap event core) and simulation clock.
* :mod:`repro.simulator.query` -- client requests and the intermediate queries
  they spawn while traversing the pipeline.
* :mod:`repro.simulator.worker` -- workers that form batches, execute them
  using profiled latencies, apply drop policies and forward intermediate
  queries along routing tables.
* :mod:`repro.simulator.cluster` -- the worker fleet, plan application and
  model-swap overheads.
* :mod:`repro.simulator.frontend` -- client-facing entry point, demand
  accounting and per-request completion tracking.
* :mod:`repro.simulator.metrics` -- per-interval and end-of-run metrics
  (system accuracy, SLO violation ratio, cluster utilisation).
* :mod:`repro.simulator.runner` -- wires a control plane (Loki's Controller or
  a baseline), a workload trace and the cluster into a runnable simulation.
"""

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import (
    ArrivalEvent,
    BatchCompleteEvent,
    CallbackEvent,
    ControlTickEvent,
    DeliveryEvent,
    Event,
    EventQueue,
    ModelReadyEvent,
    SwapCompleteEvent,
)
from repro.simulator.query import Request, IntermediateQuery, RequestStatus
from repro.simulator.network import NetworkModel
from repro.simulator.metrics import IntervalMetrics, MetricsCollector, SimulationSummary
from repro.simulator.worker import SimWorker
from repro.simulator.cluster import Cluster
from repro.simulator.frontend import Frontend
from repro.simulator.resilience import ResilienceConfig, ResilienceManager
from repro.simulator.runner import ServingSimulation, SimulationConfig

__all__ = [
    "SimulationEngine",
    "Event",
    "CallbackEvent",
    "ArrivalEvent",
    "DeliveryEvent",
    "BatchCompleteEvent",
    "ModelReadyEvent",
    "SwapCompleteEvent",
    "ControlTickEvent",
    "EventQueue",
    "Request",
    "IntermediateQuery",
    "RequestStatus",
    "NetworkModel",
    "IntervalMetrics",
    "MetricsCollector",
    "SimulationSummary",
    "SimWorker",
    "Cluster",
    "Frontend",
    "ResilienceConfig",
    "ResilienceManager",
    "ServingSimulation",
    "SimulationConfig",
]
