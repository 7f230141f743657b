"""Early-dropping policies and opportunistic rerouting (Section 5.2).

Even a correctly provisioned plan can miss SLOs at runtime because arrivals
and multiplicative factors fluctuate at sub-second timescales.  Loki therefore
makes per-request decisions at the workers:

* :class:`NoEarlyDropping` -- never drop early; requests follow the planned
  route and may simply finish late.
* :class:`LastTaskDropping` -- drop a request when it reaches the *last* task
  of its path and its leftover latency budget is smaller than that task's
  expected processing time.
* :class:`PerTaskDropping` -- drop a request at *any* task where it exceeded
  the per-task latency budget derived from the allocation plan's batch sizes.
* :class:`OpportunisticRerouting` -- Loki's policy: when a request overruns a
  task's budget by ``x``, look in the backup table for a downstream worker
  whose profiled execution time is at most ``y - x`` (``y`` being the planned
  downstream worker's execution time); pick the most accurate such worker,
  break ties randomly, and only drop when no backup worker can recover the
  deficit.

The policies are written against a narrow interface (plain data in, a
:class:`DropDecision` out) so the same code is exercised by the discrete-event
simulator, the unit tests and the ablation benchmark of Figure 7.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.load_balancer import BackupEntry, RoutingEntry

__all__ = [
    "DropAction",
    "DropDecision",
    "DropPolicy",
    "NoEarlyDropping",
    "LastTaskDropping",
    "PerTaskDropping",
    "OpportunisticRerouting",
    "make_drop_policy",
    "POLICY_NAMES",
]


class DropAction(enum.Enum):
    """What to do with a request at a decision point."""

    PROCESS = "process"
    FORWARD = "forward"
    REROUTE = "reroute"
    DROP = "drop"


@dataclass(frozen=True)
class DropDecision:
    """Outcome of a policy decision.

    ``target`` is only set for :attr:`DropAction.REROUTE` decisions and names
    the backup worker the request should be forwarded to instead of the
    planned one.
    """

    action: DropAction
    target: Optional[BackupEntry] = None
    reason: str = ""

    @property
    def drops(self) -> bool:
        return self.action is DropAction.DROP


#: shared no-op decisions: ``on_arrival``/``on_forward`` run once per query on
#: the simulator's hot path and almost always decide "carry on", so the
#: policies return these frozen singletons instead of allocating a fresh
#: DropDecision per query (drop/reroute decisions still build one, they carry
#: a reason/target)
PROCESS_DECISION = DropDecision(DropAction.PROCESS)
FORWARD_DECISION = DropDecision(DropAction.FORWARD)


class DropPolicy:
    """Base class: keep every request on its planned route."""

    name = "base"

    # Arguments are positional-friendly (no keyword-only ``*``): the two hooks
    # run once per query on the simulator's hot path, where positional calls
    # measurably beat keyword ones; existing keyword callers are unaffected.
    def on_arrival(
        self,
        is_last_task: bool,
        remaining_slo_ms: float,
        expected_processing_ms: float,
    ) -> DropDecision:
        """Decision made when a request arrives at a worker, before queueing."""
        return PROCESS_DECISION

    def on_forward(
        self,
        time_in_task_ms: float,
        budget_ms: float,
        planned_entry: Optional[RoutingEntry],
        backups: Sequence[BackupEntry],
        remaining_slo_ms: float,
        rng: np.random.Generator,
    ) -> DropDecision:
        """Decision made when a request finishes a task and is about to be forwarded."""
        return FORWARD_DECISION


class NoEarlyDropping(DropPolicy):
    """Never drop a request before it misses its SLO (ablation baseline 1)."""

    name = "no_early_dropping"


class LastTaskDropping(DropPolicy):
    """Drop only at the last task, when the leftover budget cannot cover processing."""

    name = "last_task_dropping"

    def on_arrival(self, is_last_task: bool, remaining_slo_ms: float, expected_processing_ms: float) -> DropDecision:
        if is_last_task and remaining_slo_ms < expected_processing_ms:
            return DropDecision(DropAction.DROP, reason="leftover budget below last-task processing time")
        return PROCESS_DECISION


class PerTaskDropping(DropPolicy):
    """Drop at any task whose per-task latency budget was exceeded."""

    name = "per_task_dropping"

    def on_forward(
        self,
        time_in_task_ms: float,
        budget_ms: float,
        planned_entry: Optional[RoutingEntry],
        backups: Sequence[BackupEntry],
        remaining_slo_ms: float,
        rng: np.random.Generator,
    ) -> DropDecision:
        if time_in_task_ms > budget_ms:
            return DropDecision(DropAction.DROP, reason="per-task latency budget exceeded")
        return FORWARD_DECISION

    def on_arrival(self, is_last_task: bool, remaining_slo_ms: float, expected_processing_ms: float) -> DropDecision:
        # A request whose remaining budget is already negative can never meet
        # its SLO; dropping it on arrival frees the queue slot.
        if remaining_slo_ms <= 0:
            return DropDecision(DropAction.DROP, reason="remaining SLO budget exhausted")
        return PROCESS_DECISION


class OpportunisticRerouting(DropPolicy):
    """Loki's policy: recover overruns via faster spare workers, drop as a last resort.

    The decision procedure follows Section 5.2 with one refinement: a request
    that exceeded its per-task budget but is still on track to meet its
    end-to-end deadline through the planned downstream worker is simply
    forwarded -- rerouting is only attempted when the deadline is actually in
    jeopardy, and dropping only when no spare worker can finish in time.

    ``queue_slack`` is the same waiting-time allowance the Resource Manager
    uses (queue wait assumed equal to processing time, Section 4.1).
    """

    name = "opportunistic_rerouting"

    def __init__(self, queue_slack: float = 2.0):
        self.queue_slack = float(queue_slack)

    def on_forward(
        self,
        time_in_task_ms: float,
        budget_ms: float,
        planned_entry: Optional[RoutingEntry],
        backups: Sequence[BackupEntry],
        remaining_slo_ms: float,
        rng: np.random.Generator,
    ) -> DropDecision:
        overrun_ms = time_in_task_ms - budget_ms
        if overrun_ms <= 0:
            return FORWARD_DECISION
        if planned_entry is None:
            # The request just finished its last task; nothing to reroute.
            return FORWARD_DECISION
        # The request is behind schedule.  Check whether the planned downstream
        # worker can still make the deadline (execution plus the standard
        # waiting allowance); if yes, no intervention is needed.
        planned_needed_ms = planned_entry.latency_ms * self.queue_slack
        if remaining_slo_ms >= planned_needed_ms:
            return FORWARD_DECISION
        # Behind schedule *and* the planned worker is too slow: look for a
        # spare (leftover-capacity) worker fast enough to recover the deficit.
        candidates: List[BackupEntry] = [
            b
            for b in backups
            if b.leftover_capacity_qps > 0 and b.latency_ms * self.queue_slack <= remaining_slo_ms
        ]
        if not candidates:
            return DropDecision(DropAction.DROP, reason="no backup worker can recover the overrun")
        best_accuracy = max(c.accuracy for c in candidates)
        best = [c for c in candidates if abs(c.accuracy - best_accuracy) <= 1e-12]
        chosen = best[int(rng.integers(len(best)))] if len(best) > 1 else best[0]
        return DropDecision(DropAction.REROUTE, target=chosen, reason="rerouted to faster spare worker")

    def on_arrival(self, is_last_task: bool, remaining_slo_ms: float, expected_processing_ms: float) -> DropDecision:
        if is_last_task and remaining_slo_ms < expected_processing_ms:
            return DropDecision(DropAction.DROP, reason="cannot finish within SLO even if executed immediately")
        return PROCESS_DECISION


#: Policy registry used by the configuration surface and Figure 7's ablation.
POLICY_NAMES = {
    NoEarlyDropping.name: NoEarlyDropping,
    LastTaskDropping.name: LastTaskDropping,
    PerTaskDropping.name: PerTaskDropping,
    OpportunisticRerouting.name: OpportunisticRerouting,
}


def make_drop_policy(name: str) -> DropPolicy:
    """Instantiate a drop policy by name."""
    if name not in POLICY_NAMES:
        raise KeyError(f"unknown drop policy {name!r}; available: {sorted(POLICY_NAMES)}")
    return POLICY_NAMES[name]()
