"""Routing-policy plug point of the unified control plane.

A routing policy turns (worker fleet, estimated demand, multiplier estimates)
into a :class:`~repro.core.load_balancer.RoutingPlan`.  The paper's
:class:`~repro.core.load_balancer.MostAccurateFirst` (Algorithm 1) is the
default; this module adds accuracy-blind alternatives used as ablations and
for workloads where accuracy is uniform across variants:

* ``least_loaded`` — water-fills the least-loaded workers first, raising
  absolute worker loads to a common level (join-the-shortest-queue, in
  table-generation form);
* ``weighted_random`` — splits traffic proportionally to worker capacity
  (equal utilisation everywhere);
* ``power_of_two`` — the stateless form of power-of-two-choices: the routing
  probability of a worker equals the probability it wins a "pick two uniformly
  at random, keep the one with more spare capacity" draw.

All policies, MostAccurateFirst included, share one traversal
(:class:`~repro.core.load_balancer.TrafficSplitPolicy`): route client
demand at the root, then propagate multiplier-scaled demand task by task in
topological order, collecting leftover capacity into the backup tables used
for opportunistic rerouting.  A policy only decides the order of each task's
workers and how one parcel of demand is split across them.

Since the feedback-control redesign routing also has a second, dispatch-time
plug point: a :class:`DynamicChooser` attached to the routing tables a policy
builds.  Table-generation policies decide *probabilities once per refresh*;
a dynamic chooser decides *individual draws* against live queue state probed
from the cluster (``queue_snapshot``).  Two queue-aware policies ship on it:

* ``jsq`` — true join-shortest-queue: every draw goes to the candidate with
  the least expected wait (backlog / service rate) right now;
* ``adaptive_p2c`` — live power-of-two-choices with stale-tolerance: two
  candidates are sampled per draw and compared on cached queue state that is
  re-probed every ``stale_draws`` draws, trading probe cost for boundedly
  stale information (the classic d=2 load-balancing result).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.draws import Draws
from repro.core.load_balancer import (
    MostAccurateFirst,
    RoutingEntry,
    RoutingPlan,
    RoutingPolicy,
    RoutingTable,
    TrafficSplitPolicy,
    WorkerState,
)
from repro.core.pipeline import Pipeline

__all__ = [
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


#: name -> policy class.
ROUTING_POLICIES: Dict[str, type] = {}


def register_routing_policy(cls: type) -> type:
    """Class decorator: add the policy to :data:`ROUTING_POLICIES` by its ``name``."""
    ROUTING_POLICIES[cls.name] = cls
    return cls


def make_routing_policy(name: str, pipeline: Pipeline, **kwargs):
    """Instantiate a registered routing policy by name."""
    if name not in ROUTING_POLICIES:
        raise KeyError(f"unknown routing policy {name!r}; available: {sorted(ROUTING_POLICIES)}")
    return ROUTING_POLICIES[name](pipeline, **kwargs)


# The paper's Algorithm 1 lives next to the shared traversal in
# repro.core.load_balancer; it registers here as the default policy.
register_routing_policy(MostAccurateFirst)


@register_routing_policy
class LeastLoadedRouting(TrafficSplitPolicy):
    """Water-fill on load: raise every worker's absolute load to one level.

    The parcel fills the least-loaded workers first, bringing worker loads
    (``incoming_qps``, capped by capacity) up to a common water level — the
    table-generation analogue of join-the-shortest-queue dispatch.  Across the
    sequential parcels of the shared traversal this keeps already-loaded
    workers deprioritised until the rest catch up.
    """

    name = "least_loaded"

    def split(self, workers: Sequence[WorkerState], demand_qps: float) -> List[float]:
        n = len(workers)
        loads = [w.incoming_qps for w in workers]
        spares = [max(0.0, w.remaining_capacity_qps) for w in workers]
        ceilings = [load + spare for load, spare in zip(loads, spares)]
        total_spare = sum(spares)
        if total_spare <= 0.0:
            return [0.0] * n
        if demand_qps >= total_spare:
            return spares

        def placed(level: float) -> float:
            return sum(
                min(max(0.0, level - load), spare) for load, spare in zip(loads, spares)
            )

        # placed() is piecewise linear in the level with breakpoints at every
        # load/ceiling; walk the segments and interpolate the exact level.
        points = sorted(set(loads) | set(ceilings))
        previous, placed_previous = points[0], placed(points[0])
        level = points[-1]
        for point in points[1:]:
            placed_here = placed(point)
            if placed_here >= demand_qps:
                rate = (placed_here - placed_previous) / (point - previous)
                level = previous + (demand_qps - placed_previous) / rate
                break
            previous, placed_previous = point, placed_here
        return [min(max(0.0, level - load), spare) for load, spare in zip(loads, spares)]


@register_routing_policy
class WeightedRandomRouting(TrafficSplitPolicy):
    """Split demand proportionally to worker capacity (equal utilisation)."""

    name = "weighted_random"

    def split(self, workers: Sequence[WorkerState], demand_qps: float) -> List[float]:
        weights = [max(0.0, w.capacity_qps) for w in workers]
        return _proportional_fill(workers, weights, demand_qps)


@register_routing_policy
class PowerOfTwoChoicesRouting(TrafficSplitPolicy):
    """Stateless power-of-two-choices over spare capacity.

    Per parcel, a worker's routing weight equals the probability it wins a
    "sample two workers uniformly, keep the one with more spare capacity"
    draw: with workers ranked by spare capacity ascending (rank ``r`` of
    ``n``, ties broken by id), that probability is ``(2r + 1) / n**2``.  The
    closed form keeps the hot path a plain table lookup while preserving
    power-of-two's load-skew: the most-loaded worker receives ``~1/n**2`` of
    the parcel instead of ``1/n``.
    """

    name = "power_of_two"

    def split(self, workers: Sequence[WorkerState], demand_qps: float) -> List[float]:
        n = len(workers)
        order = sorted(range(n), key=lambda i: (workers[i].remaining_capacity_qps, workers[i].worker_id))
        weights = [0.0] * n
        for rank, index in enumerate(order):
            weights[index] = (2 * rank + 1) / (n * n)
        return _proportional_fill(workers, weights, demand_qps)


class _TableState:
    """Per-(table, destination-task) live state cached by a dynamic chooser.

    Keyed by the identity of the compiled entries tuple; holding the tuple
    itself keeps it alive, so an ``id()`` can never be recycled while the
    state is cached.  States are discarded wholesale whenever the probe is
    re-bound (every routing refresh).
    """

    __slots__ = ("entries", "worker_ids", "waits", "rates", "age")

    def __init__(self, entries: Tuple[RoutingEntry, ...]):
        self.entries = entries
        self.worker_ids = [e.worker_id for e in entries]
        self.waits: List[float] = []
        self.rates: List[float] = []
        #: draws since the last probe refresh; -1 = never probed
        self.age = -1


class DynamicChooser:
    """Dispatch-time plug point: override individual routing draws with live state.

    A chooser is owned by its routing policy and attached to every table the
    policy builds (:meth:`RoutingTable.set_dynamic`).  The engine binds a
    ``queue_snapshot`` probe after each routing refresh; without a probe (no
    simulator attached) every method declines and tables fall back to their
    static compiled draw, so choosers degrade gracefully in analytic
    harnesses.

    Subclasses implement :meth:`_pick`: given refreshed per-entry expected
    waits, select one entry index (consuming RNG only if the policy's draw is
    randomised).  ``refresh_every`` bounds staleness, in draws.
    """

    name = "dynamic"

    #: probe cadence, in draws (1 = probe live state every draw)
    refresh_every = 1

    def __init__(self):
        self._probe = None
        self._states: Dict[int, _TableState] = {}

    def bind_probe(self, probe) -> None:
        """Attach the live-state probe (or ``None``) and drop cached states."""
        self._probe = probe
        self._states.clear()

    # -- state plumbing --------------------------------------------------------
    def _state(self, entries: Tuple[RoutingEntry, ...]) -> _TableState:
        key = id(entries)
        state = self._states.get(key)
        if state is None or state.entries is not entries:
            state = _TableState(entries)
            self._states[key] = state
        return state

    def _refresh(self, state: _TableState) -> bool:
        """Re-probe live backlog; False when no destination is serviceable.

        An unserviceable probe leaves ``waits`` empty so cached-path draws
        also decline (static fallback) until the next probe rebind.
        """
        backlogs, rates = self._probe(state.worker_ids)
        waits = [
            backlog / rate if rate > 0.0 else math.inf
            for backlog, rate in zip(backlogs, rates)
        ]
        state.rates = rates
        state.age = 0
        if not any(wait < math.inf for wait in waits):
            state.waits = []
            return False
        state.waits = waits
        return True

    def _place(self, state: _TableState, index: int) -> None:
        """Account a virtual placement: one more query's expected wait."""
        rate = state.rates[index]
        if rate > 0.0:
            state.waits[index] += 1.0 / rate

    # -- selection (subclass hook) ---------------------------------------------
    def _pick(self, state: _TableState, rng: Draws) -> int:
        raise NotImplementedError

    # -- RoutingTable entry points -----------------------------------------------
    def choose_index(self, entries: Tuple[RoutingEntry, ...], rng: Draws) -> Optional[int]:
        """One live draw; ``None`` defers to the table's static sampler."""
        if self._probe is None:
            return None
        state = self._state(entries)
        if state.age < 0 or state.age >= self.refresh_every:
            if not self._refresh(state):
                return None
        elif not state.waits:
            return None
        state.age += 1
        index = self._pick(state, rng)
        self._place(state, index)
        return index

class JSQChooser(DynamicChooser):
    """True join-shortest-queue: argmin of live expected wait, every draw.

    Expected wait is ``(queue depth + in-flight) / service rate``, which makes
    the comparison meaningful across heterogeneous workers (a deep queue on a
    fast variant can still be the best choice).  Ties break toward the first
    (most preferred) routing entry; no RNG is consumed.
    """

    name = "jsq"

    def _pick(self, state: _TableState, rng: Draws) -> int:
        waits = state.waits
        best = 0
        best_wait = waits[0]
        for index in range(1, len(waits)):
            wait = waits[index]
            if wait < best_wait:
                best = index
                best_wait = wait
        return best


class AdaptiveP2CChooser(DynamicChooser):
    """Live power-of-two-choices with stale-tolerance.

    Each draw samples two candidates uniformly (two ``rng.random()`` calls —
    a fixed per-draw RNG cost) and keeps the one with the smaller cached
    expected wait; the cache is re-probed every ``stale_draws`` draws.
    Between probes the chooser's own virtual placements keep the comparison
    honest, so tolerating staleness costs accuracy only against *other*
    sources of load — the d=2 trade that makes power-of-two practical when
    probing every draw is too expensive.
    """

    name = "adaptive_p2c"

    def __init__(self, stale_draws: int = 32):
        super().__init__()
        if stale_draws < 1:
            raise ValueError("stale_draws must be >= 1")
        self.refresh_every = int(stale_draws)

    def _pick(self, state: _TableState, rng: Draws) -> int:
        waits = state.waits
        n = len(waits)
        first = int(rng.random() * n)
        second = int(rng.random() * n)
        choice = first if waits[first] <= waits[second] else second
        if waits[choice] == math.inf:
            # Both sampled candidates are dead (failed/unhosted).  A live one
            # exists — the refresh guarantees it — so honour the route-around-
            # failures contract with a full scan instead of routing into a
            # black hole for the rest of the stale window.
            choice = min(range(n), key=waits.__getitem__)
        return choice


class _DynamicTableRouting(WeightedRandomRouting):
    """Shared base of the queue-aware policies: capacity-weighted tables
    (every worker with capacity gets an entry, so the live chooser sees the
    full candidate set and the static fallback remains sensible) plus one
    chooser attached to every table of the plan."""

    def __init__(self, pipeline: Pipeline, **chooser_kwargs):
        super().__init__(pipeline)
        self.chooser = self._make_chooser(**chooser_kwargs)

    def _make_chooser(self, **kwargs) -> DynamicChooser:
        raise NotImplementedError

    def build(
        self,
        workers: Sequence[WorkerState],
        demand_qps: float,
        multiplicative_factors: Optional[Mapping[str, float]] = None,
    ) -> RoutingPlan:
        plan = super().build(workers, demand_qps, multiplicative_factors)
        chooser = self.chooser
        plan.frontend_table.set_dynamic(chooser)
        for table in plan.worker_tables.values():
            table.set_dynamic(chooser)
        return plan


@register_routing_policy
class JSQRouting(_DynamicTableRouting):
    """Live join-shortest-queue dispatch over capacity-weighted tables."""

    name = "jsq"

    def _make_chooser(self) -> DynamicChooser:
        return JSQChooser()


@register_routing_policy
class AdaptiveP2CRouting(_DynamicTableRouting):
    """Live power-of-two-choices dispatch with bounded-staleness probing."""

    name = "adaptive_p2c"

    def __init__(self, pipeline: Pipeline, stale_draws: int = 32):
        super().__init__(pipeline, stale_draws=stale_draws)

    def _make_chooser(self, stale_draws: int = 32) -> DynamicChooser:
        return AdaptiveP2CChooser(stale_draws=stale_draws)


def _proportional_fill(
    workers: Sequence[WorkerState], weights: Sequence[float], demand_qps: float
) -> List[float]:
    """Weight-proportional split capped at spare capacity, spilling overflow.

    Repeatedly distributes the unplaced remainder proportionally over workers
    that still have spare capacity, so saturating one worker spills its excess
    to the rest instead of dropping it.
    """
    n = len(workers)
    amounts = [0.0] * n
    remaining = [max(0.0, w.remaining_capacity_qps) for w in workers]
    left = min(demand_qps, sum(remaining))
    for _ in range(n):
        if left <= 1e-12:
            break
        open_weights = [weights[i] if remaining[i] > 1e-12 else 0.0 for i in range(n)]
        total_weight = sum(open_weights)
        if total_weight <= 0.0:
            break
        placed_this_round = 0.0
        for i in range(n):
            if open_weights[i] <= 0.0:
                continue
            take = min(left * open_weights[i] / total_weight, remaining[i])
            amounts[i] += take
            remaining[i] -= take
            placed_this_round += take
        left -= placed_this_round
        if placed_this_round <= 1e-12:
            break
    return amounts
