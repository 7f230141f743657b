"""Request-level resilience policies for the serving data plane.

Real serving fleets do not let a worker failure silently erase every queued
and in-flight query: they retry transient losses, time out stragglers, hedge
tail requests, and re-queue work stranded on a dead worker.  This module adds
those behaviours to the simulator behind explicit knobs that all default off,
so the simulation RNG stream -- and therefore the fig5/fig6 parity goldens --
stays bit-identical unless a scenario opts in.

Design rules:

* The manager owns a **private** ``numpy`` Generator seeded from the scenario
  seed.  Retry backoff jitter, re-route choices and hedge delays never touch
  ``sim.rng``, so enabling resilience perturbs outcomes only through the
  events it injects, never through the workload stream.
* Every hook in the hot path is a single ``if sim.resilience is not None``
  attribute check; with the knobs off no extra work (and no RNG draw) happens.
* Request accounting stays closed: for every submitted request exactly one of
  completed / late / dropped is recorded, no matter how many retries, hedges
  or timeouts raced over it.  Hedge pairs share the original query's
  outstanding slot (the first member to resolve does the bookkeeping, the
  second is absorbed); timed-out requests are force-finished once and all
  straggler completions after that are absorbed silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set

import numpy as np

from repro.simulator.events import CallbackEvent
from repro.simulator.query import IntermediateQuery, Request, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.runner import ServingSimulation

__all__ = ["ResilienceConfig", "ResilienceManager", "RETRYABLE_DROP_REASONS"]

# Drop reasons that indicate infrastructure loss (a retry can plausibly land
# somewhere healthier).  Policy decisions -- deadline-based drops -- are final:
# retrying a query the drop policy rejected would just waste capacity.
RETRYABLE_DROP_REASONS = frozenset(
    {
        "worker failed",
        "worker has no assignment",
        "no frontend route available",
        "worker reassigned to a different task",
        "no downstream worker available",
        "assignment removed mid-batch",
    }
)

_RNG_SALT = 0x5E51  # "RESI"; keeps the manager stream distinct per scenario seed


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the request-level resilience layer.  Everything defaults off.

    :param max_retries: retries per query for infrastructure drops (0 = off).
    :param retry_backoff_ms: base backoff before the first retry.
    :param retry_backoff_mult: exponential backoff multiplier per attempt.
    :param retry_jitter_ms: uniform jitter added to every backoff.
    :param request_timeout_ms: force-drop a request still in flight this long
        after arrival (``None`` = off).  Stragglers completing later are
        absorbed without double-counting.
    :param hedging: duplicate tail requests to a second worker; the first
        completion wins and the loser is deduplicated.
    :param hedge_delay_ms: fixed hedge trigger delay.  ``None`` with
        ``hedging=True`` derives the delay from the live windowed p99
        (falling back to ``slo/4`` before any completions exist).
    :param failover_requeue: when a worker fails, re-queue its queued and
        in-flight queries to surviving replicas instead of dropping them.
    :param degrade_to_backups: when no planned route survives for a retry,
        fall back to the plan's backup (lower-accuracy, spare-capacity)
        entries instead of dropping.
    """

    max_retries: int = 0
    retry_backoff_ms: float = 5.0
    retry_backoff_mult: float = 2.0
    retry_jitter_ms: float = 1.0
    request_timeout_ms: Optional[float] = None
    hedging: bool = False
    hedge_delay_ms: Optional[float] = None
    failover_requeue: bool = False
    degrade_to_backups: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0 or self.retry_jitter_ms < 0:
            raise ValueError("retry backoff and jitter must be non-negative")
        if self.retry_backoff_mult < 1.0:
            raise ValueError("retry_backoff_mult must be >= 1.0")
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise ValueError("request_timeout_ms must be positive when set")
        if self.hedge_delay_ms is not None and self.hedge_delay_ms <= 0:
            raise ValueError("hedge_delay_ms must be positive when set")

    @property
    def hedging_enabled(self) -> bool:
        return self.hedging or self.hedge_delay_ms is not None

    @property
    def enabled(self) -> bool:
        return (
            self.max_retries > 0
            or self.request_timeout_ms is not None
            or self.hedging_enabled
            or self.failover_requeue
        )


class _HedgeGroup:
    """Shared state for an original query and its hedge duplicate.

    The pair shares one outstanding slot on the request: the first member to
    resolve (sink or final drop) performs the request bookkeeping, every later
    resolution is absorbed.
    """

    __slots__ = ("alive", "resolved")

    def __init__(self) -> None:
        self.alive = 2
        self.resolved = False


class ResilienceManager:
    """Per-simulation retry / timeout / hedge / failover machinery."""

    def __init__(self, sim: "ServingSimulation", config: ResilienceConfig):
        self.sim = sim
        self.cfg = config
        self.rng = np.random.default_rng((int(sim.config.seed), _RNG_SALT))
        self.timeout_s: Optional[float] = (
            None if config.request_timeout_ms is None else config.request_timeout_ms / 1000.0
        )
        self.hedging: bool = config.hedging_enabled
        self._retry_counts: Dict[int, int] = {}
        #: armed-but-unfired hedges: query_id -> original target logical worker
        self._hedge_armed: Dict[int, str] = {}
        self._hedge_groups: Dict[int, _HedgeGroup] = {}
        self._hedge_copies: Set[int] = set()
        #: request ids force-finished by timeout; stragglers are absorbed
        self._timed_out: Set[int] = set()
        #: tasks with no children -- the only ones safe to hedge (duplicating
        #: an interior query would double the downstream fan-out)
        self._sink_tasks = frozenset(
            task for task in sim.pipeline.tasks if not tuple(sim.pipeline.children(task))
        )
        registry = sim.telemetry
        self._tele_retries = registry.counter("resilience.retries")
        self._tele_retries_exhausted = registry.counter("resilience.retries_exhausted")
        # Bumped whenever a resilience re-route (retry, hedge or failover)
        # only found a home through the plan's backup tables -- i.e. the
        # query degraded to a lower-accuracy variant instead of dropping.
        self._tele_degraded = registry.counter("resilience.degraded_routes")
        self._tele_failover = registry.counter("resilience.failover_requeued")
        self._tele_hedges = registry.counter("resilience.hedges")
        self._tele_hedge_wins = registry.counter("resilience.hedge_wins")
        self._tele_hedge_absorbed = registry.counter("resilience.hedge_absorbed")
        self._tele_timeouts = registry.counter("resilience.timeouts")

    # ------------------------------------------------------------------ routing

    def _route(self, task: str, avoid: Optional[str] = None) -> Optional[str]:
        """Pick a logical worker currently planned to serve ``task``.

        Prefers the frontend table (root task), then any worker table that
        routes to ``task``; optionally redraws a few times to avoid a specific
        worker (hedges want a *different* replica).  Falls back to backup
        entries -- lower-accuracy variants with leftover capacity -- when the
        planned tables have no entry and degradation is allowed.
        """
        plan = self.sim.routing_plan
        if plan is None:
            return None
        tables = [plan.frontend_table]
        tables.extend(plan.worker_tables.values())
        choice: Optional[str] = None
        for table in tables:
            entry = table.choose(task, self.rng)
            if entry is None:
                continue
            choice = entry.worker_id
            if avoid is not None and choice == avoid:
                for _ in range(3):
                    entry = table.choose(task, self.rng)
                    if entry is not None and entry.worker_id != avoid:
                        choice = entry.worker_id
                        break
            break
        if choice is not None and choice != avoid:
            return choice
        if self.cfg.degrade_to_backups:
            for backup in plan.backups_for(task):
                if backup.worker_id != avoid:
                    self._tele_degraded.value += 1
                    return backup.worker_id
        return choice if avoid is None else None

    def _send(self, time_s: float, target: str, query: IntermediateQuery) -> None:
        """Deliver ``query`` at ``time_s`` to whichever worker then hosts ``target``.

        The logical->physical lookup happens when the delivery lands, not
        when it is sent, so a re-send never reaches a worker that failed or
        was rehosted in the meantime.  An unhosted target is a drop.
        """
        sim = self.sim

        def land() -> None:
            worker = sim.cluster.logical_map.get(target)
            if worker is None:
                sim.notify_drop(query, reason=f"logical worker {target} not hosted")
                return
            sim.forwarded_queries += 1
            sim._tele_forwarded.value += 1
            worker.enqueue(query)

        sim.engine.schedule_event(CallbackEvent(time_s, land))

    # ------------------------------------------------------------------ retries

    def on_query_drop(self, query: IntermediateQuery, reason: str) -> bool:
        """Intercept a query drop.  Returns True when the drop was absorbed
        (hedge dedup, timed-out straggler, or a scheduled retry) and the
        caller must skip its normal drop accounting."""
        qid = query.query_id
        request = query.request
        hedged = False
        group = self._hedge_groups.pop(qid, None)
        if group is not None:
            hedged = True
            self._hedge_copies.discard(qid)
            group.alive -= 1
            if group.resolved or group.alive > 0:
                # The partner already resolved (or is still in flight and may
                # yet succeed) -- this loss is masked.
                self._tele_hedge_absorbed.value += 1
                return True
            group.resolved = True  # both members lost: the drop is real
        elif qid in self._hedge_armed:
            del self._hedge_armed[qid]  # dropped before the hedge timer fired
        rid = request.request_id
        if rid in self._timed_out:
            # Request already force-finished by its timeout; drain the
            # outstanding slot silently so accounting still closes.
            request.record_internal_completion(self.sim.engine.now_s)
            if request.outstanding == 0:
                self._timed_out.discard(rid)
            return True
        if hedged:
            return False  # hedged queries are never retried
        if self.cfg.max_retries <= 0:
            return False
        # "logical worker <id> not hosted" carries the worker id, so match it
        # by prefix; everything else is an exact reason string.
        if reason not in RETRYABLE_DROP_REASONS and not reason.startswith("logical worker"):
            return False
        count = self._retry_counts.get(qid, 0)
        if count >= self.cfg.max_retries:
            self._tele_retries_exhausted.value += 1
            return False
        target = self._route(query.task)
        if target is None:
            return False
        backoff_ms = self.cfg.retry_backoff_ms * (self.cfg.retry_backoff_mult ** count)
        backoff_ms += self.cfg.retry_jitter_ms * self.rng.random()
        delay_s = backoff_ms / 1000.0 + self.sim.network.sample_delay_s(self.rng)
        self._retry_counts[qid] = count + 1
        self._tele_retries.value += 1
        self._send(self.sim.engine.now_s + delay_s, target, query)
        return True

    # ------------------------------------------------------------------ timeouts

    def arm_timeout(self, request: Request) -> None:
        deadline = request.arrival_s + (self.timeout_s or 0.0)
        self.sim.engine.schedule_event(
            CallbackEvent(deadline, lambda: self._fire_timeout(request))
        )

    def _fire_timeout(self, request: Request) -> None:
        if request.status is not RequestStatus.IN_FLIGHT:
            return
        now = self.sim.engine.now_s
        request.drops += 1  # ensures any later _finish_one re-classifies as DROPPED
        request.status = RequestStatus.DROPPED
        request.completion_s = now
        self._timed_out.add(request.request_id)
        self._tele_timeouts.value += 1
        self.sim.metrics.record_request_finished(request)

    def absorbed(self, request: Request) -> bool:
        """True when ``request`` was already recorded by a timeout and this
        completion is a straggler the caller must not record again."""
        rid = request.request_id
        if rid not in self._timed_out:
            return False
        if request.outstanding == 0:
            self._timed_out.discard(rid)
        return True

    # ------------------------------------------------------------------ hedging

    def maybe_arm_hedge(self, query: IntermediateQuery, target: str) -> None:
        if query.task not in self._sink_tasks:
            return
        qid = query.query_id
        if qid in self._hedge_groups or qid in self._hedge_armed:
            return
        now = self.sim.engine.now_s
        delay_s = self._hedge_delay_s()
        remaining_s = query.remaining_slo_ms(now) / 1000.0
        if delay_s <= 0 or delay_s >= remaining_s:
            return  # hedging past the deadline cannot help
        self._hedge_armed[qid] = target
        self.sim.engine.schedule_event(
            CallbackEvent(now + delay_s, lambda: self._fire_hedge(query))
        )

    def _hedge_delay_s(self) -> float:
        if self.cfg.hedge_delay_ms is not None:
            return self.cfg.hedge_delay_ms / 1000.0
        hist = self.sim.telemetry.windowed_histogram("requests.latency_ms.window")
        p99 = hist.quantile(0.99)
        if p99 != p99 or p99 <= 0:  # NaN before any completion lands
            p99 = self.sim.config.latency_slo_ms / 4.0
        return p99 / 1000.0

    def _fire_hedge(self, query: IntermediateQuery) -> None:
        original_target = self._hedge_armed.pop(query.query_id, None)
        if original_target is None:
            return  # resolved before the timer fired
        request = query.request
        if request.request_id in self._timed_out or request.status is not RequestStatus.IN_FLIGHT:
            return
        target = self._route(query.task, avoid=original_target)
        if target is None:
            return
        sim = self.sim
        now = sim.engine.now_s
        copy = sim.new_intermediate_query(request, query.task, now, query.accuracy_so_far)
        group = _HedgeGroup()
        self._hedge_groups[query.query_id] = group
        self._hedge_groups[copy.query_id] = group
        self._hedge_copies.add(copy.query_id)
        self._tele_hedges.value += 1
        delay_s = sim.network.sample_delay_s(self.rng)
        self._send(now + delay_s, target, copy)

    def absorb_sink(self, query: IntermediateQuery) -> bool:
        """Intercept a sink completion.  Returns True when the completion was
        absorbed (hedge loser, or a straggler of a timed-out request)."""
        qid = query.query_id
        request = query.request
        group = self._hedge_groups.pop(qid, None)
        if group is not None:
            is_copy = qid in self._hedge_copies
            self._hedge_copies.discard(qid)
            group.alive -= 1
            if group.resolved:
                # The partner delivered the result first; dedup this one.
                self._tele_hedge_absorbed.value += 1
                return True
            group.resolved = True
            if is_copy:
                self._tele_hedge_wins.value += 1
        elif qid in self._hedge_armed:
            del self._hedge_armed[qid]
        rid = request.request_id
        if rid in self._timed_out:
            request.record_internal_completion(self.sim.engine.now_s)
            if request.outstanding == 0:
                self._timed_out.discard(rid)
            return True
        return False

    # ------------------------------------------------------------------ failover

    def failover_active(self) -> bool:
        return self.cfg.failover_requeue

    def requeue_queries(self, queries: Sequence[IntermediateQuery], task: str) -> None:
        """Re-queue queries stranded on a failed worker."""
        sim = self.sim
        now = sim.engine.now_s
        for query in queries:
            target = self._route(task)
            if target is None:
                sim.notify_drop(query, reason="worker failed")
                continue
            self._tele_failover.value += 1
            delay_s = sim.network.sample_delay_s(self.rng)
            self._send(now + delay_s, target, query)
