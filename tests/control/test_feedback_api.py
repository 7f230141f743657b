"""Feedback-control API: ControlContext assembly and the one signature per hook.

``AllocationPolicy.allocate`` receives the period's ``ControlContext`` and
``TrafficSplitPolicy.split`` takes ``(workers, demand_qps)``.  These tests
pin that surface (per-step context assembly, telemetry windows, frozen
snapshots) and that the engine calls each hook with exactly that signature.
"""

import dataclasses
import warnings

import pytest

from repro.control import (
    AllocationPolicy,
    ControlContext,
    ControlPlaneEngine,
    JSQRouting,
    StaticPlanPolicy,
    TelemetryWindow,
    TrafficSplitPolicy,
)
from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import workers_from_plan
from repro.telemetry import TelemetryRegistry


def solved_plan(pipeline, num_workers=10, demand=40.0):
    return AllocationProblem(pipeline, num_workers=num_workers, utilization_target=1.0).solve(demand)


class TestWindow:
    def test_rates(self):
        window = TelemetryWindow(window_s=1.0, completed=60, dropped=10, late=30)
        assert window.finished == 100
        assert window.drop_rate == pytest.approx(0.10)
        assert window.violation_rate == pytest.approx(0.40)

    def test_empty_window_rates_are_zero(self):
        window = TelemetryWindow()
        assert window.finished == 0
        assert window.drop_rate == 0.0 and window.violation_rate == 0.0

    def test_snapshots_are_immutable(self):
        ctx = ControlContext(now_s=0.0, window=TelemetryWindow(completed=3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.now_s = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.window.completed = 99


class TestContextAssembly:
    def test_engine_builds_context_each_step(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        first = engine.last_context
        assert isinstance(first, ControlContext)
        assert first.now_s == 0.0
        assert first.latency_slo_ms == engine.latency_slo_ms
        assert first.window.demand_qps == engine.allocation.routing_demand_qps()
        engine.step(1.0)
        assert engine.last_context is not first
        assert engine.last_context.now_s == 1.0

    def test_out_of_band_build_context_is_a_pure_read(self, small_pipeline):
        """Regression: only step() commits the window marker — a curious
        caller polling build_context between ticks must not shorten the
        window the feedback loop integrates."""
        plan = solved_plan(small_pipeline)
        registry = TelemetryRegistry()
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        registry.counter("requests.completed").value = 50
        peek = engine.build_context(0.5)  # out-of-band poll
        assert peek.window.completed == 50
        engine.step(1.0, force=True)
        window = engine.last_context.window
        assert window.completed == 50  # not re-baselined by the peek
        assert window.window_s == pytest.approx(1.0)

    def test_window_counts_are_deltas(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        registry = TelemetryRegistry()
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        completed = registry.counter("requests.completed")
        latency = registry.histogram("requests.latency_ms")
        for x in (10.0, 20.0, 500.0):
            latency.observe(x)
        completed.value = 3
        engine.step(0.0, force=True)
        assert engine.last_context.window.completed == 3
        completed.value = 10
        engine.step(1.0, force=True)
        window = engine.last_context.window
        assert window.completed == 7  # delta, not cumulative
        assert window.window_s == pytest.approx(1.0)
        assert window.p50_latency_ms == pytest.approx(20.0)


class BacklogProvider:
    """ClusterStateProvider stub: a fixed backlog per worker id, all at 100 qps."""

    def __init__(self, backlogs):
        self.backlogs = backlogs
        self.calls = 0

    def queue_snapshot(self, worker_ids):
        self.calls += 1
        return [self.backlogs[w] for w in worker_ids], [100.0] * len(worker_ids)


class TestClusterStateProbe:
    """The engine binds the attached provider's ``queue_snapshot`` to every
    dynamic chooser at each routing refresh, and binds nothing without one."""

    def jsq_engine(self, pipeline, demand=300.0):
        """A jsq engine whose plan puts two workers on the root task."""
        plan = solved_plan(pipeline, demand=demand)
        engine = ControlPlaneEngine(
            pipeline, StaticPlanPolicy(plan), JSQRouting(pipeline), num_workers=10
        )
        engine.report_demand(0.0, demand)
        return engine

    def test_without_cluster_state_draws_stay_static(self, small_pipeline, rng):
        engine = self.jsq_engine(small_pipeline)
        _, routing = engine.step(0.0, force=True)
        table, root = routing.frontend_table, small_pipeline.root
        ids = [entry.worker_id for entry in table.entries(root)]
        assert len(ids) > 1
        chooser = table.dynamic
        assert chooser.choose_index(table.entries(root), rng) is None  # declines
        drawn = {table.choose(root, rng).worker_id for _ in range(200)}
        assert drawn == set(ids)  # the static draw reaches every worker

    def test_attached_cluster_state_feeds_every_draw(self, small_pipeline, rng):
        engine = self.jsq_engine(small_pipeline)
        workers = workers_from_plan(engine.allocation.plan, small_pipeline)
        backlogs = {w.worker_id: 50.0 for w in workers}
        root_ids = [w.worker_id for w in workers if w.task == small_pipeline.root]
        assert len(root_ids) > 1
        idle = root_ids[-1]
        backlogs[idle] = 0.0
        provider = BacklogProvider(backlogs)
        engine.attach_cluster_state(provider)
        _, routing = engine.step(0.0, force=True)
        root = small_pipeline.root
        draws = [routing.frontend_table.choose(root, rng).worker_id for _ in range(20)]
        assert draws == [idle] * 20
        assert provider.calls == 20


class RecordingAllocation(AllocationPolicy):
    """Context-aware policy that records what ``allocate`` receives."""

    def __init__(self, plan):
        super().__init__()
        self.plan = plan
        self.calls = []

    def allocate(self, ctx):
        self.calls.append(ctx)
        self.engine.last_allocation_s = ctx.now_s
        return self.plan


class EvenSplit(TrafficSplitPolicy):
    """Routing policy with the two-argument split."""

    def split(self, workers, demand_qps):
        share = demand_qps / len(workers)
        return [min(share, w.remaining_capacity_qps) for w in workers]


class ThreeArgumentSplit(EvenSplit):
    """Routing policy whose split still requires the deleted ``view`` argument."""

    def split(self, workers, demand_qps, view):
        return super().split(workers, demand_qps)


class TestSingleSignatures:
    def test_allocate_receives_the_context_and_nothing_warns(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        policy = RecordingAllocation(plan)
        engine = ControlPlaneEngine(small_pipeline, policy, num_workers=10)
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
            engine.step(10.0, force=True)
        assert caught == []
        assert [ctx.now_s for ctx in policy.calls] == [0.0, 10.0]
        assert policy.calls[-1] is engine.last_context
        assert engine.current_plan is plan

    def test_two_argument_split_routes(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), EvenSplit(small_pipeline), num_workers=10
        )
        engine.report_demand(0.0, 40.0)
        _, routing = engine.step(0.0, force=True)
        assert routing is engine.current_routing
        root = small_pipeline.root
        assert routing.frontend_table.routed_fraction(root) == pytest.approx(1.0)

    def test_split_requiring_view_raises_at_first_refresh(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        routing = ThreeArgumentSplit(small_pipeline)
        engine = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), routing, num_workers=10)
        engine.report_demand(0.0, 40.0)
        with pytest.raises(TypeError, match="split"):
            engine.step(0.0, force=True)
        assert engine.current_plan is plan  # allocation ran; the refresh raised
        assert engine.current_routing is None

    def test_annotated_context_param_counts_as_new_style(self, small_pipeline):
        """An override whose first parameter is annotated ControlContext is
        context-aware regardless of the parameter name."""
        plan = solved_plan(small_pipeline)
        seen = []

        class Annotated(AllocationPolicy):
            def allocate(self, snapshot: ControlContext):
                seen.append(snapshot)
                self.engine.last_allocation_s = snapshot.now_s
                return plan

        engine = ControlPlaneEngine(small_pipeline, Annotated(), num_workers=10)
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        assert seen and isinstance(seen[0], ControlContext)

    def test_new_style_policies_warn_nothing(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), "least_loaded", num_workers=10
        )
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []

    def test_context_aware_super_delegation_plans(self, small_pipeline):
        """An ``allocate(ctx)`` override that delegates to ``super().allocate(ctx)``
        runs the generic cached path."""
        plan = solved_plan(small_pipeline)
        seen = []

        class Delegator(AllocationPolicy):
            def build_plan(self, target):
                return plan

            def allocate(self, ctx):
                seen.append(ctx.now_s)
                return super().allocate(ctx)

        engine = ControlPlaneEngine(small_pipeline, Delegator(), num_workers=10)
        engine.report_demand(0.0, 40.0)
        new_plan, _ = engine.step(0.0, force=True)
        assert new_plan is plan
        assert seen == [0.0]
        assert engine.last_allocation_s == 0.0
        assert engine.allocations_performed == 1
