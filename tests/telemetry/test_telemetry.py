"""Tests for the telemetry subsystem (metrics, registry, simulator wiring)."""

import math

import numpy as np
import pytest

from repro.scenarios import SweepRunner, get_scenario
from repro.telemetry import Counter, Gauge, Histogram, TelemetryRegistry


class TestPrimitives:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4.5)
        assert counter.value == 5.5
        assert counter.snapshot() == {"c": 5.5}

    def test_gauge_tracks_value_and_peak(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(9)
        gauge.set(2)
        assert gauge.value == 2.0
        assert gauge.snapshot() == {"g": 2.0, "g.peak": 9.0}

    def test_unset_gauge_snapshot_is_zero(self):
        assert Gauge("g").snapshot() == {"g": 0.0, "g.peak": 0.0}

    def test_histogram_summary_stats(self):
        histogram = Histogram("h")
        for x in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(x)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(10.0)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0 and histogram.max == 4.0
        snapshot = histogram.snapshot()
        assert snapshot["h.count"] == 4.0
        assert "h.p50" in snapshot and "h.p99" in snapshot

    def test_empty_histogram_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.snapshot()["h.p50"])


class TestExactQuantiles:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_equals_nearest_rank_order_statistic(self, q):
        rng = np.random.default_rng(7)
        samples = rng.normal(100.0, 15.0, size=20000)
        histogram = Histogram("h")
        for x in samples:
            histogram.observe(x)
        ordered = np.sort(samples)
        expected = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        assert histogram.quantile(q) == expected

    def test_step_stream_tail_is_exact(self):
        """A late burst of slow requests sets p99 exactly (a streaming
        estimate lags far behind on this step)."""
        histogram = Histogram("h")
        for _ in range(990):
            histogram.observe(10.0)
        for _ in range(10):
            histogram.observe(1000.0)
        assert histogram.quantile(0.99) == 1000.0
        assert histogram.snapshot()["h.p99"] == 1000.0

    def test_small_sample_is_exact_order_statistic(self):
        histogram = Histogram("h")
        for x in (5.0, 1.0, 3.0):
            histogram.observe(x)
        assert histogram.quantile(0.5) == 3.0

    def test_observation_after_read_is_seen(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        assert histogram.quantile(0.99) == 1.0
        histogram.observe(9.0)
        assert histogram.quantile(0.99) == 9.0

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 0.99, 1.0])
    def test_window_agrees_with_whole_run_on_one_window(self, q):
        """Both views read quantiles by the same nearest-rank rule."""
        samples = np.random.default_rng(3).lognormal(4.0, 1.0, size=997).tolist()
        histogram = Histogram("h")
        for x in samples:
            histogram.observe(x)
        assert histogram.window_count == histogram.count
        assert histogram.quantile(q) == histogram.window_quantile(q)

    def test_extreme_quantiles_are_min_and_max(self):
        histogram = Histogram("h")
        for x in (7.0, -2.0, 4.0, 11.0):
            histogram.observe(x)
        assert histogram.quantile(0.0) == histogram.min == -2.0
        assert histogram.quantile(1.0) == histogram.max == 11.0

    def test_arrival_order_does_not_change_quantiles(self):
        """Exact order statistics depend on the sample set, not its order."""
        samples = np.random.default_rng(11).exponential(50.0, size=5000)
        forward, shuffled = Histogram("a"), Histogram("b")
        for x in np.sort(samples):
            forward.observe(x)
        for x in np.random.default_rng(12).permutation(samples):
            shuffled.observe(x)
        for q in forward.quantiles:
            assert forward.quantile(q) == shuffled.quantile(q)

    def test_interleaved_reads_match_a_single_final_read(self):
        samples = np.random.default_rng(5).normal(0.0, 1.0, size=300)
        interleaved, batched = Histogram("a"), Histogram("b")
        for x in samples:
            interleaved.observe(x)
            interleaved.quantile(0.9)  # caches a sorted copy, then goes stale
            batched.observe(x)
        assert interleaved.snapshot()["a.p90"] == batched.snapshot()["b.p90"]

    def test_snapshot_keys(self):
        histogram = Histogram("lat")
        histogram.observe(1.0)
        assert set(histogram.snapshot()) == {
            f"lat.{key}"
            for key in (
                "count", "sum", "mean", "min", "max", "p50", "p90", "p99",
                "window.count", "window.p50", "window.p99",
            )
        }

    def test_configured_quantiles_name_the_snapshot_keys(self):
        histogram = Histogram("h", quantiles=(0.25, 0.75))
        for x in range(1, 101):
            histogram.observe(float(x))
        snapshot = histogram.snapshot()
        assert snapshot["h.p25"] == 26.0 and snapshot["h.p75"] == 76.0
        assert "h.p50" not in snapshot


def observe_all(histogram, samples):
    for x in samples:
        histogram.observe(x)


class TestControlWindow:
    def test_quantiles_reflect_only_the_active_window(self):
        histogram = Histogram("h")
        observe_all(histogram, [900.0] * 100)  # a transient spike
        histogram.close_window()
        observe_all(histogram, [10.0] * 100)  # traffic back to normal
        assert histogram.window_quantile(0.99) == 10.0  # the spike is gone
        assert histogram.quantile(0.99) == 900.0  # the whole run still has it

    def test_empty_active_window_falls_back_to_last_completed(self):
        histogram = Histogram("h")
        observe_all(histogram, [1.0, 2.0, 3.0, 4.0])
        histogram.close_window()
        assert histogram.window_quantile(0.5) == 3.0
        assert histogram.window_count == 4

    def test_no_samples_at_all_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.window_quantile(0.99))
        histogram.close_window()
        assert math.isnan(histogram.window_quantile(0.5))
        assert histogram.window_count == 0

    def test_observation_after_closing_supersedes_fallback(self):
        histogram = Histogram("h")
        observe_all(histogram, [100.0, 200.0])
        histogram.close_window()
        histogram.observe(7.0)
        assert histogram.window_quantile(0.5) == 7.0

    def test_observation_after_read_is_seen(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        assert histogram.window_quantile(0.99) == 1.0
        histogram.observe(9.0)
        assert histogram.window_quantile(0.99) == 9.0

    def test_equal_sized_consecutive_windows_are_not_confused(self):
        """Regression: the sorted copy must be rebuilt when the window moves,
        even when consecutive windows hold the same number of samples."""
        histogram = Histogram("h")
        observe_all(histogram, [1.0, 2.0])
        histogram.close_window()
        assert histogram.window_quantile(0.5) == 2.0  # caches the first window
        observe_all(histogram, [80.0, 90.0])
        histogram.close_window()
        assert histogram.window_quantile(0.5) == 90.0

    def test_empty_windows_keep_the_last_non_empty_one(self):
        histogram = Histogram("h")
        observe_all(histogram, [10.0, 20.0])
        histogram.close_window()
        histogram.close_window()  # an empty window keeps the fallback
        snapshot = histogram.snapshot()
        assert snapshot["h.window.count"] == 2.0
        assert snapshot["h.window.p50"] == 20.0
        assert snapshot["h.window.p99"] == 20.0


class TestRegistry:
    def test_create_or_get_returns_same_instance(self):
        registry = TelemetryRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_type_mismatch_rejected(self):
        registry = TelemetryRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_is_flat_and_sorted(self):
        registry = TelemetryRegistry()
        registry.counter("z.count").inc()
        registry.gauge("a.level").set(2)
        snapshot = registry.snapshot()
        assert snapshot == {"a.level": 2.0, "a.level.peak": 2.0, "z.count": 1.0}
        assert all(isinstance(v, float) for v in snapshot.values())


class TestSimulationWiring:
    @pytest.fixture(scope="class")
    def smoke_summary(self):
        return get_scenario("smoke").run(seed=0)

    def test_summary_carries_telemetry_snapshot(self, smoke_summary):
        telemetry = smoke_summary.telemetry
        assert telemetry  # populated by ServingSimulation.run
        # Frontend, worker, request and control-plane metrics all present.
        for key in (
            "frontend.requests",
            "worker.batches",
            "queries.forwarded",
            "requests.completed",
            "requests.latency_ms.count",
            "control.plan_changes",
            "control.best_effort_plans",
            "control.routing_refreshes",
            "cluster.active_workers.peak",
        ):
            assert key in telemetry, key

    def test_best_effort_plans_are_counted(self, smoke_summary):
        assert smoke_summary.telemetry["control.best_effort_plans"] == 0.0
        # Far beyond the 6-worker cluster's capacity (~2,300 QPS): only the
        # best-effort max-throughput plan is left.
        overloaded = get_scenario("smoke").with_overrides(trace_params={"qps": 5_000.0, "duration_s": 2}).run(seed=0)
        assert overloaded.telemetry["control.best_effort_plans"] > 0

    def test_telemetry_consistent_with_summary(self, smoke_summary):
        telemetry = smoke_summary.telemetry
        assert telemetry["frontend.requests"] == float(smoke_summary.total_requests)
        assert telemetry["requests.completed"] == float(smoke_summary.completed_requests)
        assert telemetry["requests.dropped"] == float(smoke_summary.dropped_requests)
        # The latency histogram covers every finished request that produced a
        # result (completed + late); the summary's mean_latency_ms covers
        # completed requests only.
        assert telemetry["requests.latency_ms.count"] == float(
            smoke_summary.completed_requests + smoke_summary.late_requests
        )
        assert (
            telemetry["requests.latency_ms.min"]
            <= smoke_summary.mean_latency_ms
            <= telemetry["requests.latency_ms.max"]
        )

    def test_whole_run_latency_quantiles_are_monotone(self, smoke_summary):
        telemetry = smoke_summary.telemetry
        keys = ("min", "p50", "p90", "p99", "max")
        values = [telemetry[f"requests.latency_ms.{key}"] for key in keys]
        assert values == sorted(values)

    def test_baseline_control_planes_record_telemetry(self):
        summary = get_scenario("smoke").with_overrides(system="proteus").run(seed=0)
        assert summary.telemetry["control.routing_refreshes"] > 0


class TestSweepAggregation:
    def test_telemetry_aggregated_across_seeds(self):
        runner = SweepRunner(parallel=False)
        result = runner.run(["smoke"], seeds=[0, 1])
        stats = result.telemetry("queries.forwarded")["smoke"]
        assert stats.n == 2
        values = [r.summary.telemetry["queries.forwarded"] for r in result.records]
        assert stats.mean == pytest.approx(sum(values) / 2)
        assert "queries.forwarded" in result.telemetry_names()

    def test_missing_metrics_aggregate_as_nan_dropped(self):
        runner = SweepRunner(parallel=False)
        result = runner.run(["smoke"], seeds=[0])
        stats = result.telemetry("no.such.metric")["smoke"]
        assert stats.n == 0 and math.isnan(stats.mean)
