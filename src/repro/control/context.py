"""Per-period snapshots consumed by feedback-driven control policies.

The paper's control planes decide from *planned* capacity: the Resource
Manager sees demand estimates and multiplier heartbeats, the Load Balancer
sees the allocation plan.  Feedback-driven policies additionally read what
the run has observed.  This module defines the read-only snapshot types that
expose those signals to policies:

* :class:`TelemetryWindow` — exact latency quantiles over the last control
  window, windowed completion/drop/late counts and the resulting violation
  rates, plus the control plane's demand estimate;
* :class:`ControlContext` — what :class:`~repro.control.engine.ControlPlaneEngine`
  hands to :meth:`AllocationPolicy.allocate` each control period: ``now_s``
  + TelemetryWindow + the configured latency SLO.

Both are frozen dataclasses of plain values: a policy cannot mutate simulator
state through them, and two policies consulting the same context see identical
numbers.

Live queue state is read per routing draw, not per period: the
:class:`ClusterStateProvider.queue_snapshot` probe, which the dynamic routing
choosers (:mod:`repro.control.routing`) consult on the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

__all__ = [
    "TelemetryWindow",
    "ControlContext",
    "ClusterStateProvider",
]


@dataclass(frozen=True)
class TelemetryWindow:
    """Telemetry aggregates since the previous control period.

    Counts (``completed``/``dropped``/``late``) are deltas over the window,
    and the latency quantiles are *windowed* too: exact quantiles over the
    latencies observed since the last committed context (falling back to the
    previous window while the current one is empty, and NaN before any
    sample).  A transient tail spike therefore decays out of ``p99`` within
    one window of the traffic returning to normal instead of lingering for
    the rest of the run, as it would in a run-cumulative quantile.  All
    fields are plain floats/ints so windows are picklable and comparable.
    """

    #: wall of the window in simulated seconds (0.0 on the first period)
    window_s: float = 0.0
    completed: int = 0
    dropped: int = 0
    late: int = 0
    #: exact per-window quantiles over completed+late requests (NaN until
    #: the first sample arrives)
    p50_latency_ms: float = math.nan
    p99_latency_ms: float = math.nan
    #: the control plane's current demand estimate (qps)
    demand_qps: float = 0.0

    @property
    def finished(self) -> int:
        return self.completed + self.dropped + self.late

    @property
    def drop_rate(self) -> float:
        finished = self.finished
        return self.dropped / finished if finished else 0.0

    @property
    def violation_rate(self) -> float:
        """Windowed SLO violation ratio (dropped + late over finished)."""
        finished = self.finished
        return (self.dropped + self.late) / finished if finished else 0.0


@dataclass(frozen=True)
class ControlContext:
    """Everything a feedback-driven policy may consult in one control period."""

    now_s: float
    window: TelemetryWindow = field(default_factory=TelemetryWindow)
    #: the engine's configured end-to-end latency SLO
    latency_slo_ms: float = 0.0


@runtime_checkable
class ClusterStateProvider(Protocol):
    """What the engine needs from a live cluster: the dispatch-time queue probe.

    ``queue_snapshot`` is the hot-path probe: given logical worker ids it
    returns ``(backlogs, service_rates)`` aligned with the input.  Unhosted /
    failed ids come back as ``(inf, 0.0)`` so queue-aware choosers naturally
    route around them.
    """

    def queue_snapshot(self, worker_ids: Sequence[str]) -> Tuple[List[float], List[float]]:
        ...  # pragma: no cover - protocol
