"""The Frontend: client-facing entry point of the simulated serving system.

The Frontend accepts client requests, stamps their latency deadline, routes
them to a first-task worker according to the frontend routing table produced
by the Load Balancer, aggregates the sink results, and records the incoming
demand so the Controller can store it in the Metadata Store (Section 3).

A run's arrivals are one :class:`~repro.simulator.events.ArrivalCursor` that
walks the pre-sampled arrival times and calls :meth:`Frontend.submit` once
per client query.  A submit is one pass that calls each decision's one home:
the arrival tally (:meth:`MetricsCollector.record_arrival`), the root query,
one routing draw (:meth:`RoutingTable.choose`) and then one network-delay
draw (:meth:`NetworkModel.sample_delay_s`), the RNG order per arrival that
the fig5/fig6 parity goldens pin; only the root query's construction and the
calendar push are inline.  A test-only copy of the per-helper path it
replaces (``tests/simulator/test_dispatch_reference.py``) must produce
bit-identical runs, as must the workers' loops; change both together.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING

from repro.simulator.query import IntermediateQuery, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.runner import ServingSimulation

__all__ = ["Frontend"]


class Frontend:
    """Accepts requests, routes them to root-task workers and tracks demand.

    The run's :class:`~repro.simulator.events.ArrivalCursor` calls
    :meth:`submit` at each pre-sampled arrival time.
    """

    __slots__ = (
        "sim",
        "slo_ms",
        "_window_arrivals",
        "total_submitted",
        "rejected_no_plan",
        "_tele_requests",
        "_tele_rejected",
        "_engine",
        "_calendar",
        "_root",
    )

    def __init__(self, sim: "ServingSimulation", slo_ms: float):
        self.sim = sim
        self.slo_ms = float(slo_ms)
        #: requests observed in the current demand-reporting window
        self._window_arrivals = 0
        #: requests submitted so far; also the id of the next request
        self.total_submitted = 0
        self.rejected_no_plan = 0
        self._tele_requests = sim.telemetry.counter("frontend.requests")
        self._tele_rejected = sim.telemetry.counter("frontend.rejected_no_route")
        self._engine = sim.engine
        self._calendar = sim.engine.queue
        self._root = sim.pipeline.root

    # -- client API -----------------------------------------------------------
    def submit(self) -> Request:
        """A client query arrives now; route it to a first-task worker.

        The arrival is tallied, the root query built and the route drawn,
        then the hop is pushed onto the calendar: one routing draw, then one
        network draw.
        """
        sim = self.sim
        now = self._engine.now_s
        request = Request(self.total_submitted, now, self.slo_ms)
        self.total_submitted += 1
        self._window_arrivals += 1
        self._tele_requests.value += 1
        sim.metrics.record_arrival(now)

        request.outstanding = 1
        query = IntermediateQuery(sim._next_query_id, request, self._root, now, 1.0)
        sim._next_query_id += 1

        resilience = sim.resilience
        if resilience is not None and resilience.timeout_s is not None:
            resilience.arm_timeout(request)

        routing = sim.routing_plan
        rng = sim.rng
        entry = routing.frontend_table.choose(self._root, rng) if routing is not None else None
        if entry is None:
            # No routing yet (e.g. before the first plan) or no root capacity at
            # all: the request cannot be served.
            self.rejected_no_plan += 1
            self._tele_rejected.value += 1
            sim.notify_drop(query, reason="no frontend route available")
            return request
        worker_id = entry.worker_id
        worker = sim.cluster.logical_map.get(worker_id)
        if worker is None:
            sim.notify_drop(query, reason=f"logical worker {worker_id} not hosted")
            return request
        sim._tele_forwarded.value += 1
        # call_at without its past-time check: the delay is >= 0
        calendar = self._calendar
        calendar._seq = seq = calendar._seq + 1
        heappush(calendar._heap, (now + sim.network.sample_delay_s(rng), seq, worker.enqueue, query))
        if resilience is not None and resilience.hedging:
            resilience.maybe_arm_hedge(query, worker_id)
        return request

    # -- demand accounting -------------------------------------------------------
    def drain_window_demand(self) -> int:
        """Arrivals since the last call (the Frontend's demand report)."""
        count = self._window_arrivals
        self._window_arrivals = 0
        return count
