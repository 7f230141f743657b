"""Unit tests for the unified control-plane engine and allocation policies."""

import math

import pytest

from repro.control import (
    AllocationPolicy,
    ControlPlaneEngine,
    ROUTING_POLICIES,
    StaticPlanPolicy,
    multiplier_fingerprint,
)
from repro.core import Controller, ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import LoadBalancer
from repro.scenarios import SYSTEM_FACTORIES, get_scenario
from repro.telemetry import TelemetryRegistry


def solved_plan(pipeline, num_workers=10, demand=40.0):
    return AllocationProblem(pipeline, num_workers=num_workers, utilization_target=1.0).solve(demand)


def observe_all(histogram, samples):
    for x in samples:
        histogram.observe(x)


class CountingPolicy(AllocationPolicy):
    """Allocation policy that counts plan builds."""

    def __init__(self):
        super().__init__()
        self.builds = 0

    def build_plan(self, target_demand_qps):
        self.builds += 1
        engine = self.engine
        return AllocationProblem(
            engine.pipeline, num_workers=engine.num_workers, utilization_target=1.0
        ).solve(target_demand_qps)


def counting_engine(pipeline, **kwargs):
    return ControlPlaneEngine(pipeline, CountingPolicy(), num_workers=10, **kwargs)


class TestEngineLoop:
    def test_static_policy_step_produces_plan_and_routing(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        engine.report_demand(0.0, 40.0)
        new_plan, routing = engine.step(0.0, force=True)
        assert new_plan is plan
        assert routing is not None and not routing.frontend_table.is_empty()
        assert engine.plan_changes == 1

    def test_interval_gates_reallocation(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, reallocation_interval_s=10.0
        )
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        assert not engine.should_reallocate(5.0)
        assert engine.should_reallocate(10.0)

    def test_routing_policy_selected_by_name(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), "least_loaded", num_workers=10
        )
        assert type(engine.routing_policy) is ROUTING_POLICIES["least_loaded"]
        engine.report_demand(0.0, 40.0)
        _, routing = engine.step(0.0, force=True)
        assert routing is not None and not routing.frontend_table.is_empty()

    def test_unknown_routing_policy_rejected(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        with pytest.raises(KeyError):
            ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), "no_such_policy", num_workers=10)

    def test_telemetry_counters_track_control_activity(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        registry = TelemetryRegistry()
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        engine.step(2.0)
        snapshot = registry.snapshot()
        assert snapshot["control.plan_changes"] == 1.0
        assert snapshot["control.routing_refreshes"] >= 2.0
        assert snapshot["control.planned_workers"] == float(plan.total_workers)


class TestTelemetryWindowQuantiles:
    """The context's p50/p99 come from the latency histogram's control window."""

    def _engine(self, small_pipeline, registry):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        return engine

    def test_committed_ticks_close_the_window(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        latency = registry.histogram("requests.latency_ms")
        observe_all(latency, [900.0] * 50)  # spike during the first window
        engine.step(0.0, force=True)  # commits: spike window closes
        observe_all(latency, [10.0] * 50)  # traffic back to normal
        ctx = engine.build_context(1.0)
        assert ctx.window.p99_latency_ms == 10.0  # spike no longer visible

    def test_pure_reads_do_not_close_the_window(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        latency = registry.histogram("requests.latency_ms")
        observe_all(latency, [500.0] * 10)
        engine.build_context(0.5)  # out-of-band read, no commit
        observe_all(latency, [5.0] * 10)
        # a closed window would leave only the 5 ms samples in view
        assert engine.build_context(0.6).window.p99_latency_ms == 500.0
        assert latency.window_count == 20

    def test_empty_window_reports_previous_window_not_run_cumulative(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        latency = registry.histogram("requests.latency_ms")
        observe_all(latency, [900.0])
        engine.step(0.0, force=True)
        observe_all(latency, [100.0, 200.0])
        engine.step(1.0, force=True)
        ctx = engine.build_context(2.0)  # nothing finished this window yet
        assert ctx.window.p50_latency_ms == 200.0
        assert ctx.window.p99_latency_ms == 200.0  # the 900 ms run tail is out of view

    def test_window_quantiles_are_exact_order_statistics(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        observe_all(registry.histogram("requests.latency_ms"), [float(x) for x in range(100, 0, -1)])
        ctx = engine.build_context(1.0)
        assert ctx.window.p50_latency_ms == 51.0
        assert ctx.window.p99_latency_ms == 100.0

    def test_late_burst_sets_the_window_tail(self, small_pipeline):
        """One percent of slow requests at the end of a window is its p99."""
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        observe_all(registry.histogram("requests.latency_ms"), [10.0] * 990 + [1000.0] * 10)
        ctx = engine.build_context(1.0)
        assert ctx.window.p50_latency_ms == 10.0
        assert ctx.window.p99_latency_ms == 1000.0

    def test_no_latency_yet_reports_no_latency_signal(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        ctx = engine.build_context(1.0)
        assert math.isnan(ctx.window.p50_latency_ms) and math.isnan(ctx.window.p99_latency_ms)


class TestPlanCache:
    def test_identical_state_hits_the_cache(self, small_pipeline):
        control = counting_engine(small_pipeline)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        control.step(10.0, force=True)
        assert control.allocation.builds == 1  # same target + fingerprint -> cached plan
        assert control.allocations_performed == 1

    def test_multiplier_drift_invalidates_cached_plans(self, small_pipeline):
        """Regression: the seed cache was keyed on demand alone and served
        stale plans forever once multiplier estimates drifted."""
        control = counting_engine(small_pipeline)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        assert control.allocation.builds == 1
        # Drift the estimate far enough to move the 0.5-quantised fingerprint.
        for _ in range(20):
            control.report_multiplier("detect_big", 4.0)
        control.step(10.0, force=True)
        assert control.allocation.builds == 2

    def test_fingerprint_quantisation_absorbs_heartbeat_jitter(self, small_pipeline):
        control = counting_engine(small_pipeline)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        before = control.allocation.fingerprint()
        control.report_multiplier("detect_big", 2.02)  # tiny jitter
        assert control.allocation.fingerprint() == before
        control.step(10.0, force=True)
        assert control.allocation.builds == 1

    def test_cache_is_lru_bounded(self, small_pipeline):
        control = counting_engine(small_pipeline, plan_cache_size=2)
        targets = [20.0, 40.0, 60.0]
        for index, target in enumerate(targets):
            control.estimator.reset(target)
            control.step(10.0 * index, force=True)
        assert control.allocation.builds == 3
        assert len(control._plan_cache) == 2
        # Oldest key (target 20) was evicted; re-solving it builds again.
        control.estimator.reset(20.0)
        control.step(100.0, force=True)
        assert control.allocation.builds == 4


class TestMultiplierSmoothing:
    def test_configured_alpha_used(self, small_pipeline):
        """Regression: the seed hard-coded a 0.3/0.7 EWMA for baselines."""
        plan = solved_plan(small_pipeline)
        control = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, ewma_alpha=0.5
        )
        before = control.multiplier_estimates["detect_big"]
        control.report_multiplier("detect_big", before + 1.0)
        assert control.multiplier_estimates["detect_big"] == pytest.approx(before + 0.5)

    def test_multiplier_alpha_overridable_independently(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        control = ControlPlaneEngine(
            small_pipeline,
            StaticPlanPolicy(plan),
            num_workers=10,
            ewma_alpha=0.5,
            multiplier_ewma_alpha=0.1,
        )
        before = control.multiplier_estimates["detect_big"]
        control.report_multiplier("detect_big", before + 1.0)
        assert control.multiplier_estimates["detect_big"] == pytest.approx(before + 0.1)

    def test_fingerprint_helper_quantises(self):
        fp = multiplier_fingerprint({"a": 1.74, "b": 2.26})
        assert fp == (("a", 1.5), ("b", 2.5))


class TestRegistries:
    def test_builtin_policies_registered(self):
        assert {
            "most_accurate_first",
            "least_loaded",
            "weighted_random",
            "power_of_two",
        } <= set(ROUTING_POLICIES)


class TestController:
    def test_controller_routing_policy_config(self, small_pipeline):
        controller = Controller(
            small_pipeline,
            ControllerConfig(num_workers=10, routing_policy="weighted_random", utilization_target=1.0),
        )
        assert type(controller.routing_policy) is ROUTING_POLICIES["weighted_random"]
        controller.report_demand(0.0, 40.0)
        plan, routing = controller.step(0.0, force=True)
        assert plan is not None and routing is not None


@pytest.mark.parametrize("system", sorted(SYSTEM_FACTORIES))
def test_every_system_runs_through_the_engine_hooks(system, monkeypatch):
    """Every serving system is a ControlPlaneEngine that keeps the engine's
    own step, so class-level wrappers on the engine loop, the allocation
    entry point and the routing refresh see each system's control work."""
    spec = get_scenario("smoke").with_overrides(
        system=system, trace_params={"qps": 30.0, "duration_s": 3}
    )
    simulation = spec.build(seed=0)
    control = simulation.control_plane
    assert isinstance(control, ControlPlaneEngine)
    assert type(control).step is ControlPlaneEngine.step

    calls = {"step": 0, "run_allocation": 0, "refresh": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ControlPlaneEngine, "step")
    counting(AllocationPolicy, "run_allocation")
    counting(LoadBalancer, "refresh")
    simulation.run()
    assert all(count >= 1 for count in calls.values()), calls
