"""Tests for the InferLine-style and Proteus-style baseline control planes."""

import pytest

from repro.baselines import InferLineControlPlane, ProteusControlPlane
from repro.baselines.inferline import restrict_pipeline_to_variants
from repro.control import ControlPlaneEngine, StaticPlanPolicy
from repro.core.allocation import AllocationProblem


class TestRestrictPipeline:
    def test_keeps_only_selected_variants(self, small_pipeline):
        restricted = restrict_pipeline_to_variants(
            small_pipeline, {"detect": "detect_big", "classify": "classify_small"}
        )
        assert restricted.registry.num_variants("detect") == 1
        assert restricted.registry.most_accurate("classify").name == "classify_small"
        assert restricted.latency_slo_ms == small_pipeline.latency_slo_ms

    def test_missing_selection_rejected(self, small_pipeline):
        with pytest.raises(KeyError):
            restrict_pipeline_to_variants(small_pipeline, {"detect": "detect_big"})

    def test_wrong_task_variant_rejected(self, small_pipeline):
        with pytest.raises(ValueError):
            restrict_pipeline_to_variants(small_pipeline, {"detect": "classify_big", "classify": "classify_big"})


class TestInferLine:
    def test_defaults_to_most_accurate_variants(self, small_pipeline):
        control = InferLineControlPlane(small_pipeline, num_workers=10)
        assert control.allocation.variant_selection == {"detect": "detect_big", "classify": "classify_big"}

    def test_plan_uses_only_pinned_variants(self, small_pipeline):
        control = InferLineControlPlane(small_pipeline, num_workers=10)
        plan = control.allocation.build_plan(40.0)
        assert plan.feasible
        assert {a.variant_name for a in plan.allocations} <= {"detect_big", "classify_big"}
        assert plan.expected_accuracy == pytest.approx(1.0, abs=1e-6)

    def test_never_switches_variants_under_overload(self, small_pipeline):
        control = InferLineControlPlane(small_pipeline, num_workers=4)
        plan = control.allocation.build_plan(10_000.0)
        assert not plan.feasible  # hardware scaling alone cannot serve this
        assert {a.variant_name for a in plan.allocations} <= {"detect_big", "classify_big"}
        assert plan.total_workers <= 4

    def test_step_produces_plan_and_routing(self, small_pipeline):
        control = InferLineControlPlane(small_pipeline, num_workers=10)
        control.report_demand(0.0, 40.0)
        plan, routing = control.step(0.0, force=True)
        assert plan is not None and routing is not None
        assert not routing.frontend_table.is_empty()

    def test_plan_workers_grow_with_demand(self, small_pipeline):
        control = InferLineControlPlane(small_pipeline, num_workers=12)
        low = control.allocation.build_plan(20.0)
        high = control.allocation.build_plan(100.0)
        assert high.total_workers >= low.total_workers

    def test_custom_variant_selection(self, small_pipeline):
        control = InferLineControlPlane(
            small_pipeline, num_workers=10, variant_selection={"detect": "detect_small", "classify": "classify_small"}
        )
        plan = control.allocation.build_plan(40.0)
        assert {a.variant_name for a in plan.allocations} <= {"detect_small", "classify_small"}


class TestProteus:
    def test_uses_entire_cluster(self, small_pipeline):
        control = ProteusControlPlane(small_pipeline, num_workers=10)
        plan = control.allocation.build_plan(30.0)
        assert plan.total_workers == 10  # no hardware scaling: all servers active

    def test_accuracy_maximal_at_low_demand(self, small_pipeline):
        control = ProteusControlPlane(small_pipeline, num_workers=10)
        plan = control.allocation.build_plan(20.0)
        assert plan.expected_accuracy == pytest.approx(1.0, abs=1e-6)

    def test_accuracy_drops_under_heavy_per_task_demand(self, small_pipeline):
        control = ProteusControlPlane(small_pipeline, num_workers=6)
        for _ in range(5):
            control.report_task_demand("detect", 400.0)
            control.report_task_demand("classify", 800.0)
        plan = control.allocation.build_plan(400.0)
        assert plan.expected_accuracy < 1.0

    def test_reactive_task_demand_estimates(self, small_pipeline):
        control = ProteusControlPlane(small_pipeline, num_workers=10)
        # Without observations the downstream estimate falls back to the root demand.
        assert control.allocation.task_demand_estimate("classify", 100.0) == pytest.approx(100.0)
        for _ in range(10):
            control.report_task_demand("classify", 240.0)
        assert control.allocation.task_demand_estimate("classify", 100.0) > 150.0

    def test_fallback_plan_when_demand_exceeds_cluster(self, small_pipeline):
        control = ProteusControlPlane(small_pipeline, num_workers=3)
        for _ in range(5):
            control.report_task_demand("detect", 5_000.0)
            control.report_task_demand("classify", 5_000.0)
        plan = control.allocation.build_plan(5_000.0)
        assert plan.total_workers <= 3
        assert not plan.feasible or plan.total_workers == 3

    def test_step_protocol(self, small_pipeline):
        control = ProteusControlPlane(small_pipeline, num_workers=10)
        control.report_demand(0.0, 50.0)
        control.report_task_demand("detect", 50.0)
        control.report_task_demand("classify", 90.0)
        plan, routing = control.step(0.0, force=True)
        assert plan is not None
        assert routing is not None
        assert plan.total_workers == 10

    def test_ignores_pipeline_structure_in_latency_budgets(self, small_pipeline):
        """Proteus gives each task the full (halved) SLO -- the pipeline-agnostic blind spot."""
        control = ProteusControlPlane(small_pipeline, num_workers=10)
        plan = control.allocation.build_plan(50.0)
        budget = small_pipeline.latency_slo_ms / 2
        for allocation in plan.allocations:
            assert allocation.latency_ms <= budget + 1e-9

    def test_solver_options_default_only_for_none(self, small_pipeline):
        """An explicit ``{}`` means "HiGHS defaults", not the control plane's budget,
        for Proteus exactly as for Loki's :class:`AllocationProblem`."""
        from repro.baselines.proteus import ProteusAllocationPolicy
        from repro.solver import DEFAULT_SOLVER_OPTIONS

        assert ProteusAllocationPolicy(solver_options={}).solver_options == {}
        assert ProteusAllocationPolicy().solver_options == dict(DEFAULT_SOLVER_OPTIONS)
        assert AllocationProblem(small_pipeline, 10, solver_options={}).solver_options == {}
        assert AllocationProblem(small_pipeline, 10).solver_options == dict(DEFAULT_SOLVER_OPTIONS)

    def test_solver_options_reach_the_solver(self, small_pipeline, monkeypatch):
        import repro.baselines.proteus as proteus

        calls = []
        real = proteus.solve

        def spy(model, **kwargs):
            calls.append(kwargs)
            return real(model, **kwargs)

        monkeypatch.setattr(proteus, "solve", spy)
        control = ProteusControlPlane(small_pipeline, num_workers=10, solver_options={"node_limit": 500})
        assert control.allocation.build_plan(50.0).feasible
        assert calls == [{"node_limit": 500}]


class TestStaticPlan:
    def test_always_returns_supplied_plan(self, small_pipeline):
        plan = AllocationProblem(small_pipeline, num_workers=10, utilization_target=1.0).solve(40.0)
        control = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        assert control.allocation.build_plan(5.0) is plan
        assert control.allocation.build_plan(500.0) is plan

    def test_reallocation_interval_respected(self, small_pipeline):
        plan = AllocationProblem(small_pipeline, num_workers=10, utilization_target=1.0).solve(40.0)
        control = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, reallocation_interval_s=10.0
        )
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        new_plan, _ = control.step(1.0)
        assert new_plan is None

    def test_multiplier_reports_smoothed(self, small_pipeline):
        plan = AllocationProblem(small_pipeline, num_workers=10, utilization_target=1.0).solve(40.0)
        control = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        before = control.multiplier_estimates["detect_big"]
        control.report_multiplier("detect_big", before + 2.0)
        assert control.multiplier_estimates["detect_big"] > before
        control.report_multiplier("unknown_variant", 1.0)  # silently ignored
