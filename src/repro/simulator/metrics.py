"""Metrics collection for simulation runs.

The evaluation metrics of Section 6.1:

* **System accuracy** -- average accuracy experienced by all requests served
  by the system.
* **Cluster utilisation** -- ratio of workers used to the cluster size.
* **SLO violation ratio** -- ratio of requests that missed their SLO, where a
  request misses either by finishing late or by being dropped.

Metrics are aggregated per reporting interval (1 second by default) so the
experiment harness can reproduce the timeseries panels of Figures 5 and 6, and
summarised over the whole run for the headline comparisons.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.query import Request, RequestStatus
from repro.telemetry import TelemetryRegistry

__all__ = ["IntervalMetrics", "MetricsCollector", "SimulationSummary"]


@dataclass
class IntervalMetrics:
    """Aggregates for one reporting interval."""

    start_s: float
    demand: int = 0
    completed: int = 0
    violations: int = 0
    dropped: int = 0
    late: int = 0
    accuracy_sum: float = 0.0
    accuracy_count: int = 0
    active_workers: int = 0
    cluster_size: int = 0

    @property
    def finished(self) -> int:
        return self.completed + self.violations

    @property
    def violation_ratio(self) -> float:
        total = self.finished
        return self.violations / total if total else 0.0

    @property
    def mean_accuracy(self) -> float:
        return self.accuracy_sum / self.accuracy_count if self.accuracy_count else 0.0

    @property
    def utilization(self) -> float:
        return self.active_workers / self.cluster_size if self.cluster_size else 0.0


@dataclass
class SimulationSummary:
    """End-of-run summary used by the experiment harness and benchmarks."""

    total_requests: int
    completed_requests: int
    violated_requests: int
    dropped_requests: int
    late_requests: int
    slo_violation_ratio: float
    mean_accuracy: float
    min_interval_accuracy: float
    max_accuracy_drop: float
    mean_utilization: float
    peak_workers: int
    mean_workers: float
    mean_latency_ms: float
    p99_latency_ms: float
    intervals: List[IntervalMetrics] = field(default_factory=list)
    #: flattened TelemetryRegistry snapshot of the run (counters, gauges,
    #: histograms); plain floats so summaries stay picklable
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: ordered ``(time_s, label)`` fault-injection events of the run
    #: (fail/recover/crash/slowdown/net-spike markers from the
    #: ``faults.timeline`` telemetry Timeline); empty without faults
    fault_timeline: List[Tuple[float, str]] = field(default_factory=list)

    def timeseries(self, attribute: str) -> List[float]:
        """Extract a per-interval series by attribute/property name."""
        return [getattr(interval, attribute) for interval in self.intervals]


class MetricsCollector:
    """Accumulates per-interval and per-request metrics during a simulation.

    Each request fact is written once at each granularity: an arrival to its
    interval's ``demand``; an outcome to its interval and to one run-total
    counter of the telemetry registry (``requests.completed``,
    ``requests.dropped``, ``requests.late``); and the latency of a request
    that produced results (completed or late) to the ``requests.latency_ms``
    histogram, whose control window the control plane and hedging read.  The
    run totals, the accuracy count and the completed-only latencies of the
    summary are derived from those records on read.  Without a ``telemetry``
    registry the collector records into one of its own.
    """

    def __init__(
        self,
        cluster_size: int,
        interval_s: float = 1.0,
        max_pipeline_accuracy: float = 1.0,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.cluster_size = int(cluster_size)
        self.interval_s = float(interval_s)
        self.max_pipeline_accuracy = float(max_pipeline_accuracy)
        self.intervals: Dict[int, IntervalMetrics] = {}
        #: last interval touched — consecutive recordings almost always land
        #: in the same interval, so this short-circuits the dict lookup
        self._last_index: Optional[int] = None
        self._last_interval: Optional[IntervalMetrics] = None
        #: kept as a running sum: adding up the interval sums instead would
        #: reorder the float additions and move mean_accuracy in its last bits
        self._accuracy_sum = 0.0
        self.telemetry = telemetry = telemetry if telemetry is not None else TelemetryRegistry()
        self._tele_completed = telemetry.counter("requests.completed")
        self._tele_dropped = telemetry.counter("requests.dropped")
        self._tele_late = telemetry.counter("requests.late")
        #: completed and late requests' latencies in completion order; the
        #: summary's mean/p99_latency_ms skip the late ones, which sit at
        #: ``_late_positions`` (machine ints: most of an overloaded run is late)
        self.latency = telemetry.histogram("requests.latency_ms")
        self._late_positions = array("q")

    # -- recording -----------------------------------------------------------
    def _interval(self, time_s: float) -> IntervalMetrics:
        index = int(time_s // self.interval_s)
        if index == self._last_index:
            return self._last_interval
        interval = self.intervals.get(index)
        if interval is None:
            interval = IntervalMetrics(start_s=index * self.interval_s, cluster_size=self.cluster_size)
            self.intervals[index] = interval
        self._last_index = index
        self._last_interval = interval
        return interval

    def record_arrival(self, time_s: float) -> None:
        self._interval(time_s).demand += 1

    def record_active_workers(self, time_s: float, active_workers: int) -> None:
        """Record the worker count in use at (the interval containing) ``time_s``."""
        interval = self._interval(time_s)
        interval.active_workers = max(interval.active_workers, int(active_workers))

    def record_request_finished(self, request: Request) -> None:
        completion_s = request.completion_s
        if not request.is_finished or completion_s is None:
            raise ValueError("request has not finished yet")
        interval = self._interval(completion_s)
        status = request.status
        if status is RequestStatus.DROPPED:
            interval.violations += 1
            interval.dropped += 1
            self._tele_dropped.value += 1
            return
        if status is RequestStatus.COMPLETED:
            interval.completed += 1
            self._tele_completed.value += 1
        else:
            interval.violations += 1
            interval.late += 1
            self._tele_late.value += 1
            self._late_positions.append(self.latency.count)
        # request.latency_ms inlined (completion_s is known to be set here).
        self.latency.observe((completion_s - request.arrival_s) * 1000.0)
        # Late requests still produced results, so their accuracy counts toward
        # the achieved-accuracy average.  Requests that legitimately produced
        # no sink results (e.g. zero objects detected in the frame) have no
        # accuracy to report and are left out of it.
        if request.accuracy_count:
            mean_accuracy = request.mean_accuracy
            interval.accuracy_sum += mean_accuracy
            interval.accuracy_count += 1
            self._accuracy_sum += mean_accuracy

    # -- run totals, read from the records ------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(interval.demand for interval in self.intervals.values())

    @property
    def completed_requests(self) -> int:
        return int(self._tele_completed.value)

    @property
    def dropped_requests(self) -> int:
        return int(self._tele_dropped.value)

    @property
    def late_requests(self) -> int:
        return int(self._tele_late.value)

    @property
    def violated_requests(self) -> int:
        return self.dropped_requests + self.late_requests

    # -- summaries ------------------------------------------------------------
    def slo_violation_ratio(self) -> float:
        finished = self.completed_requests + self.violated_requests
        return self.violated_requests / finished if finished else 0.0

    def mean_accuracy(self) -> float:
        count = sum(interval.accuracy_count for interval in self.intervals.values())
        return self._accuracy_sum / count if count else 0.0

    def summary(self) -> SimulationSummary:
        intervals = [self.intervals[k] for k in sorted(self.intervals)]
        accuracy_series = [i.mean_accuracy for i in intervals if i.accuracy_count > 0]
        min_interval_accuracy = min(accuracy_series) if accuracy_series else 0.0
        utilizations = [i.utilization for i in intervals]
        workers = [i.active_workers for i in intervals]
        latencies = np.delete(np.asarray(self.latency.samples, dtype=float), self._late_positions)
        return SimulationSummary(
            total_requests=self.total_requests,
            completed_requests=self.completed_requests,
            violated_requests=self.violated_requests,
            dropped_requests=self.dropped_requests,
            late_requests=self.late_requests,
            slo_violation_ratio=self.slo_violation_ratio(),
            mean_accuracy=self.mean_accuracy(),
            min_interval_accuracy=min_interval_accuracy,
            max_accuracy_drop=max(0.0, self.max_pipeline_accuracy - min_interval_accuracy)
            if accuracy_series
            else 0.0,
            mean_utilization=float(np.mean(utilizations)) if utilizations else 0.0,
            peak_workers=max(workers) if workers else 0,
            mean_workers=float(np.mean(workers)) if workers else 0.0,
            mean_latency_ms=float(latencies.mean()) if latencies.size else math.nan,
            p99_latency_ms=float(np.percentile(latencies, 99)) if latencies.size else math.nan,
            intervals=intervals,
        )
