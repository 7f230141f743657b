"""Unified control-plane framework: one engine, pluggable policies.

The control planes compared in the paper (Loki, InferLine-style, Proteus
style) and the SLO-feedback allocator all share the same periodic skeleton —
estimate demand, maybe build a new allocation plan, refresh routing tables —
and differ only in the policy decisions inside it.  This package factors that skeleton into

* :class:`~repro.control.engine.ControlPlaneEngine` — the one periodic loop
  (demand estimation, fingerprint-keyed LRU plan caching, plan diffing,
  worker-state expansion, routing refresh, telemetry);
* :class:`~repro.control.policies.AllocationPolicy` — *what to run*: Loki's
  two-step MILP allocator, the InferLine/Proteus baselines, the SLO-feedback
  allocator and static plans are all implementations;
* :mod:`~repro.control.routing` — *where to send queries*: the paper's
  MostAccurateFirst plus least-loaded, weighted-random and
  power-of-two-choices, all compiled into per-query inverse-CDF draws
  (``RoutingTable.choose``).

``repro.core.controller.Controller`` and the control planes in
``repro.baselines`` are ``ControlPlaneEngine`` subclasses that only build
their policies.
"""

from repro.control.context import (
    ClusterStateProvider,
    ControlContext,
    TelemetryWindow,
)
from repro.control.engine import ControlPlaneEngine
from repro.control.policies import (
    AllocationPolicy,
    LokiAllocationPolicy,
    SLOFeedbackPolicy,
    StaticPlanPolicy,
)
from repro.control.routing import (
    ROUTING_POLICIES,
    AdaptiveP2CChooser,
    AdaptiveP2CRouting,
    DynamicChooser,
    JSQChooser,
    JSQRouting,
    LeastLoadedRouting,
    PowerOfTwoChoicesRouting,
    RoutingPolicy,
    TrafficSplitPolicy,
    WeightedRandomRouting,
    make_routing_policy,
    register_routing_policy,
)
from repro.core.metadata import multiplier_fingerprint

__all__ = [
    "ControlPlaneEngine",
    "ControlContext",
    "ClusterStateProvider",
    "TelemetryWindow",
    "AllocationPolicy",
    "LokiAllocationPolicy",
    "StaticPlanPolicy",
    "SLOFeedbackPolicy",
    "multiplier_fingerprint",
    "RoutingPolicy",
    "TrafficSplitPolicy",
    "LeastLoadedRouting",
    "WeightedRandomRouting",
    "PowerOfTwoChoicesRouting",
    "DynamicChooser",
    "JSQChooser",
    "AdaptiveP2CChooser",
    "JSQRouting",
    "AdaptiveP2CRouting",
    "ROUTING_POLICIES",
    "register_routing_policy",
    "make_routing_policy",
]
