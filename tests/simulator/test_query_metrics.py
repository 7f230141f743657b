"""Tests for request bookkeeping and metrics collection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.metrics import MetricsCollector
from repro.simulator.query import IntermediateQuery, Request, RequestStatus
from repro.telemetry import TelemetryRegistry


class TestRequest:
    def test_deadline_from_slo(self):
        request = Request(0, arrival_s=1.0, slo_ms=250.0)
        assert request.deadline_s == pytest.approx(1.25)
        assert request.remaining_slo_ms(1.1) == pytest.approx(150.0)

    def test_single_sink_completion_before_deadline(self):
        request = Request(0, 0.0, 100.0)
        request.outstanding += 1
        request.record_sink_completion(0.05, path_accuracy=0.9)
        assert request.status is RequestStatus.COMPLETED
        assert not request.violates_slo
        assert request.mean_accuracy == pytest.approx(0.9)
        assert request.latency_ms == pytest.approx(50.0)

    def test_late_completion_marks_violation(self):
        request = Request(0, 0.0, 100.0)
        request.outstanding += 1
        request.record_sink_completion(0.2, path_accuracy=1.0)
        assert request.status is RequestStatus.LATE
        assert request.violates_slo

    def test_any_drop_marks_request_dropped(self):
        request = Request(0, 0.0, 100.0)
        request.outstanding += 2
        request.record_sink_completion(0.01, path_accuracy=1.0)
        request.record_drop(0.02)
        assert request.status is RequestStatus.DROPPED
        assert request.violates_slo

    def test_fanout_completion_requires_all_children(self):
        request = Request(0, 0.0, 200.0)
        request.outstanding += 1  # root query
        request.outstanding += 3  # three detections
        request.record_internal_completion(0.01)  # root query done
        assert request.status is RequestStatus.IN_FLIGHT
        for i in range(3):
            request.record_sink_completion(0.02 + 0.01 * i, path_accuracy=0.8)
        assert request.status is RequestStatus.COMPLETED
        assert request.mean_accuracy == pytest.approx(0.8)
        assert request.accuracy_count == 3

    def test_zero_detection_request_completes_without_accuracy(self):
        request = Request(0, 0.0, 100.0)
        request.outstanding += 1
        request.record_internal_completion(0.01)
        assert request.status is RequestStatus.COMPLETED
        assert request.accuracy_count == 0
        assert request.mean_accuracy == 0.0

    def test_bookkeeping_underflow_detected(self):
        request = Request(0, 0.0, 100.0)
        with pytest.raises(RuntimeError):
            request.record_internal_completion(0.01)

    def test_intermediate_query_accumulates_accuracy(self):
        request = Request(0, 0.0, 100.0)
        query = IntermediateQuery(1, request, "detect", 0.0, accuracy_so_far=1.0)
        query.accuracy_so_far *= 0.9
        query.accuracy_so_far *= 0.8
        assert query.accuracy_so_far == pytest.approx(0.72)
        assert query.remaining_slo_ms(0.05) == pytest.approx(50.0)


def finished_request(arrival, completion, slo_ms=100.0, accuracy=1.0, dropped=False):
    request = Request(0, arrival, slo_ms)
    request.outstanding += 1
    if dropped:
        request.record_drop(completion)
    else:
        request.record_sink_completion(completion, path_accuracy=accuracy)
    return request


class TestMetricsCollector:
    def test_requires_finished_requests(self):
        collector = MetricsCollector(cluster_size=4)
        pending = Request(0, 0.0, 100.0)
        with pytest.raises(ValueError):
            collector.record_request_finished(pending)

    def test_counts_and_violation_ratio(self):
        collector = MetricsCollector(cluster_size=4)
        for _ in range(3):
            collector.record_arrival(0.1)
        collector.record_request_finished(finished_request(0.0, 0.05))
        collector.record_request_finished(finished_request(0.0, 0.5))          # late
        collector.record_request_finished(finished_request(0.0, 0.05, dropped=True))
        assert collector.total_requests == 3
        assert collector.completed_requests == 1
        assert collector.late_requests == 1
        assert collector.dropped_requests == 1
        assert collector.slo_violation_ratio() == pytest.approx(2 / 3)

    def test_accuracy_excludes_empty_requests(self):
        collector = MetricsCollector(cluster_size=4)
        collector.record_request_finished(finished_request(0.0, 0.05, accuracy=0.8))
        empty = Request(1, 0.0, 100.0)
        empty.outstanding += 1
        empty.record_internal_completion(0.01)
        collector.record_request_finished(empty)
        assert collector.mean_accuracy() == pytest.approx(0.8)

    def test_interval_aggregation(self):
        collector = MetricsCollector(cluster_size=10, interval_s=1.0)
        collector.record_arrival(0.2)
        collector.record_arrival(1.2)
        collector.record_active_workers(0.5, 4)
        collector.record_active_workers(1.5, 8)
        collector.record_request_finished(finished_request(0.2, 0.3))
        collector.record_request_finished(finished_request(1.2, 1.9))  # late (slo 100ms)
        summary = collector.summary()
        assert len(summary.intervals) == 2
        first, second = summary.intervals
        assert first.demand == 1 and second.demand == 1
        assert first.utilization == pytest.approx(0.4)
        assert second.utilization == pytest.approx(0.8)
        assert first.violation_ratio == 0.0
        assert second.violation_ratio == 1.0

    def test_summary_headline_numbers(self):
        collector = MetricsCollector(cluster_size=10, max_pipeline_accuracy=1.0)
        for i in range(4):
            collector.record_arrival(float(i))
            collector.record_request_finished(finished_request(float(i), float(i) + 0.05, accuracy=0.9))
        summary = collector.summary()
        assert summary.total_requests == 4
        assert summary.slo_violation_ratio == 0.0
        assert summary.mean_accuracy == pytest.approx(0.9)
        assert summary.max_accuracy_drop == pytest.approx(0.1)
        assert summary.mean_latency_ms == pytest.approx(50.0)
        assert summary.p99_latency_ms == pytest.approx(50.0)
        assert summary.timeseries("demand") == [1, 1, 1, 1]

    def test_empty_run_summary(self):
        summary = MetricsCollector(cluster_size=4).summary()
        assert summary.total_requests == 0
        assert summary.slo_violation_ratio == 0.0
        assert math.isnan(summary.mean_latency_ms)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(cluster_size=4, interval_s=0.0)

    def _collector_with_latencies(self):
        registry = TelemetryRegistry()
        collector = MetricsCollector(cluster_size=4, telemetry=registry)
        for i in range(98):
            collector.record_request_finished(finished_request(0.0, 0.001 * (i + 1)))
        collector.record_request_finished(finished_request(0.0, 0.5))  # late, 500 ms
        collector.record_request_finished(finished_request(0.0, 0.9))  # late, 900 ms
        collector.record_request_finished(finished_request(0.0, 5.0, dropped=True))
        return registry

    def test_telemetry_latency_quantiles_are_exact_over_completed_and_late(self):
        registry = self._collector_with_latencies()
        snapshot = registry.snapshot()
        assert snapshot["requests.latency_ms.count"] == 100.0  # the drop is excluded
        assert snapshot["requests.latency_ms.max"] == pytest.approx(900.0)
        assert snapshot["requests.latency_ms.p50"] == pytest.approx(51.0)
        assert snapshot["requests.latency_ms.p90"] == pytest.approx(91.0)
        assert snapshot["requests.latency_ms.p99"] == pytest.approx(900.0)

    def test_control_window_sees_the_same_population(self):
        registry = self._collector_with_latencies()
        latency = registry.histogram("requests.latency_ms")
        assert latency.window_count == latency.count == 100
        for q in (0.5, 0.9, 0.99):
            assert latency.window_quantile(q) == latency.quantile(q)
        snapshot = registry.snapshot()
        assert snapshot["requests.latency_ms.window.count"] == 100.0
        assert snapshot["requests.latency_ms.window.p99"] == pytest.approx(900.0)

    def test_summary_latencies_skip_late_requests_in_order(self):
        """The summary's latency figures read the one latency record without
        its late samples: late requests land between completed ones."""
        collector = MetricsCollector(cluster_size=4)
        for completion in (0.01, 0.5, 0.02, 0.9, 0.03):  # two late (slo 100 ms)
            collector.record_request_finished(finished_request(0.0, completion))
        summary = collector.summary()
        assert summary.completed_requests == 3 and summary.late_requests == 2
        assert summary.mean_latency_ms == pytest.approx(20.0)
        assert summary.p99_latency_ms == pytest.approx(np.percentile([10.0, 20.0, 30.0], 99))
        assert collector.latency.count == 5

    def test_run_totals_are_the_telemetry_counters(self):
        registry = TelemetryRegistry()
        collector = MetricsCollector(cluster_size=4, telemetry=registry)
        collector.record_request_finished(finished_request(0.0, 0.05))
        collector.record_request_finished(finished_request(0.0, 0.5))
        collector.record_request_finished(finished_request(0.0, 0.05, dropped=True))
        assert registry.counter("requests.completed").value == collector.completed_requests == 1
        assert registry.counter("requests.late").value == collector.late_requests == 1
        assert registry.counter("requests.dropped").value == collector.dropped_requests == 1


# -- Request lifecycle: property test of the bookkeeping invariants ------------

_op = st.one_of(
    st.tuples(st.just("sink"), st.floats(0.0, 0.5), st.floats(0.0, 1.0)),
    st.tuples(st.just("drop"), st.floats(0.0, 0.5), st.none()),
    st.tuples(st.just("internal"), st.floats(0.0, 0.5), st.none()),
    st.tuples(st.just("add"), st.integers(1, 3), st.none()),
)


class TestRequestLifecycleProperty:
    """Invariants: outstanding never goes negative (underflow raises), the
    terminal status is set exactly once, DROPPED dominates the on-time/late
    classification, and every sink result feeds the accuracy mean."""

    @given(
        arrival=st.floats(0.0, 10.0),
        slo_ms=st.floats(1.0, 500.0),
        ops=st.lists(_op, min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_bookkeeping_invariants(self, arrival, slo_ms, ops):
        request = Request(0, arrival, slo_ms)
        request.outstanding += 1
        now = arrival
        terminal_transitions = 0
        sink_accuracies = []
        for kind, a, b in ops:
            if kind == "add":
                if request.is_finished:
                    continue
                request.outstanding += a
                continue
            now += a
            if request.is_finished:
                with pytest.raises(RuntimeError):
                    request.record_internal_completion(now)
                break
            if kind == "sink":
                request.record_sink_completion(now, b)
                sink_accuracies.append(b)
            elif kind == "drop":
                request.record_drop(now)
            else:
                request.record_internal_completion(now)
            assert request.outstanding >= 0
            if request.is_finished:
                terminal_transitions += 1
                assert request.completion_s == now
                assert request.latency_ms == pytest.approx((now - arrival) * 1000.0)
            else:
                assert request.completion_s is None and request.latency_ms is None

        assert terminal_transitions <= 1
        assert request.accuracy_count == len(sink_accuracies)
        assert request.mean_accuracy == pytest.approx(
            sum(sink_accuracies) / len(sink_accuracies) if sink_accuracies else 0.0
        )
        if request.is_finished:
            if request.drops:
                assert request.status is RequestStatus.DROPPED
            elif request.completion_s <= request.deadline_s + 1e-9:
                assert request.status is RequestStatus.COMPLETED
            else:
                assert request.status is RequestStatus.LATE
            assert request.violates_slo == (request.status is not RequestStatus.COMPLETED)
        else:
            assert request.status is RequestStatus.IN_FLIGHT
            assert not request.violates_slo
