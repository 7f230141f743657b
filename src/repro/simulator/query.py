"""Client requests and the intermediate queries they spawn.

A *request* enters the pipeline at the root task; executing the root task's
model generates zero or more *intermediate queries* per outgoing edge (the
multiplicative factor), each of which is served by a downstream worker, and so
on until the sinks.  A request is fulfilled only when every intermediate query
derived from it has reached a sink before the request's latency deadline; it
violates its SLO when any derived query finishes late or is dropped
(Section 6.1, evaluation metrics).
"""

from __future__ import annotations

import enum
from typing import Optional

__all__ = ["RequestStatus", "Request", "IntermediateQuery"]


class RequestStatus(enum.Enum):
    """Lifecycle of a client request."""

    IN_FLIGHT = "in_flight"
    COMPLETED = "completed"       # all derived queries finished before the deadline
    LATE = "late"                 # finished, but after the deadline
    DROPPED = "dropped"           # at least one derived query was dropped


class Request:
    """A client request and its completion bookkeeping."""

    __slots__ = (
        "request_id",
        "arrival_s",
        "deadline_s",
        "status",
        "outstanding",
        "completion_s",
        "accuracy_sum",
        "accuracy_count",
        "drops",
    )

    def __init__(self, request_id: int, arrival_s: float, slo_ms: float) -> None:
        self.request_id = request_id
        self.arrival_s = arrival_s
        self.deadline_s = arrival_s + slo_ms / 1000.0
        self.status = RequestStatus.IN_FLIGHT
        #: number of in-flight queries derived from this request (including
        #: the root query)
        self.outstanding = 0
        self.completion_s: Optional[float] = None
        self.accuracy_sum = 0.0
        self.accuracy_count = 0
        self.drops = 0

    # -- bookkeeping ---------------------------------------------------------
    def add_outstanding(self, count: int = 1) -> None:
        self.outstanding += count

    def record_sink_completion(self, time_s: float, path_accuracy: float) -> None:
        """One derived query reached a sink."""
        self.accuracy_sum += path_accuracy
        self.accuracy_count += 1
        self._finish_one(time_s)

    def record_drop(self, time_s: float) -> None:
        """One derived query was dropped."""
        self.drops += 1
        self._finish_one(time_s)

    def _finish_one(self, time_s: float) -> None:
        self.outstanding -= 1
        if self.outstanding < 0:
            raise RuntimeError(f"request {self.request_id}: completion bookkeeping underflow")
        if self.outstanding == 0:
            self.completion_s = time_s
            if self.drops > 0:
                self.status = RequestStatus.DROPPED
            elif time_s <= self.deadline_s + 1e-9:
                self.status = RequestStatus.COMPLETED
            else:
                self.status = RequestStatus.LATE

    #: a derived query finished without producing further work (e.g. zero
    #: detections); an alias, not a wrapper, as it runs once per query that
    #: fans out
    record_internal_completion = _finish_one

    # -- metrics --------------------------------------------------------------
    @property
    def is_finished(self) -> bool:
        return self.status is not RequestStatus.IN_FLIGHT

    @property
    def violates_slo(self) -> bool:
        """True when the request missed its SLO (late or dropped), per Section 6.1."""
        return self.status in (RequestStatus.LATE, RequestStatus.DROPPED)

    @property
    def mean_accuracy(self) -> float:
        """Average end-to-end accuracy over the request's sink results (0 when none)."""
        return self.accuracy_sum / self.accuracy_count if self.accuracy_count else 0.0

    @property
    def latency_ms(self) -> Optional[float]:
        if self.completion_s is None:
            return None
        return (self.completion_s - self.arrival_s) * 1000.0

    def remaining_slo_ms(self, now_s: float) -> float:
        return (self.deadline_s - now_s) * 1000.0


class IntermediateQuery:
    """One unit of work travelling through the pipeline.

    The root query of a request is also represented as an
    :class:`IntermediateQuery` whose ``task`` is the pipeline's root.
    ``accuracy_so_far`` accumulates the product of the accuracies of the
    variants that have processed the query, so when it reaches a sink the value
    is the end-to-end path accuracy the request experienced on this path.
    """

    __slots__ = (
        "query_id",
        "request",
        "task",
        "worker_arrival_s",
        "accuracy_so_far",
    )

    def __init__(
        self, query_id: int, request: Request, task: str, worker_arrival_s: float, accuracy_so_far: float = 1.0
    ) -> None:
        self.query_id = query_id
        self.request = request
        self.task = task
        #: when the query reached its current worker (its creation time until
        #: a worker enqueues it); the drop policies' time-in-task starts here
        self.worker_arrival_s = worker_arrival_s
        self.accuracy_so_far = accuracy_so_far

    def remaining_slo_ms(self, now_s: float) -> float:
        return self.request.remaining_slo_ms(now_s)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"IntermediateQuery(id={self.query_id}, task={self.task!r}, request={self.request.request_id})"
