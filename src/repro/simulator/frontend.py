"""The Frontend: client-facing entry point of the simulated serving system.

The Frontend accepts client requests, stamps their latency deadline, routes
them to a first-task worker according to the frontend routing table produced
by the Load Balancer, aggregates the sink results, and records the incoming
demand so the Controller can store it in the Metadata Store (Section 3).

A run's arrivals are one :class:`~repro.simulator.events.ArrivalCursor` that
walks the pre-sampled arrival times and calls :meth:`Frontend.submit` once
per client query: one inverse-CDF routing draw and one network-delay draw per
query, the RNG stream the fig5/fig6 parity goldens pin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simulator.query import Request

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

    # -- client API -----------------------------------------------------------
    def submit(self) -> Request:
        """A client query arrives now; route it to a first-task worker."""
        sim = self.sim
        now = sim.engine.now_s
        request = Request(self.total_submitted, now, self.slo_ms)
        self.total_submitted += 1
        self._window_arrivals += 1
        self._tele_requests.value += 1
        sim.metrics.record_arrival(now)

        root_task = sim.pipeline.root
        request.add_outstanding(1)
        query = sim.new_intermediate_query(request, root_task, now, accuracy_so_far=1.0)

        resilience = getattr(sim, "resilience", None)
        if resilience is not None and resilience.timeout_s is not None:
            resilience.arm_timeout(request)

        routing = sim.routing_plan
        entry = routing.frontend_table.choose(root_task, sim.rng) if routing is not None else None
        if entry is None:
            # No routing yet (e.g. before the first plan) or no root capacity at
            # all: the request cannot be served.
            self.rejected_no_plan += 1
            self._tele_rejected.value += 1
            sim.notify_drop(query, reason="no frontend route available")
            return request
        sim.forward_query(query, entry.worker_id)
        return request

    # -- demand accounting -------------------------------------------------------
    def drain_window_demand(self) -> int:
        """Arrivals since the last call (the Frontend's demand report)."""
        count = self._window_arrivals
        self._window_arrivals = 0
        return count
