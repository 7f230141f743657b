"""Tests for the Resource Manager: demand estimation, two-step scaling, plan stability."""

import pytest

from repro.core.allocation import ACCURACY_SCALING, HARDWARE_SCALING
from repro.core.metadata import MetadataStore
from repro.core.resource_manager import DemandEstimator, ResourceManager


class TestDemandEstimator:
    def test_first_observation_sets_estimate(self):
        estimator = DemandEstimator(alpha=0.5, headroom=1.0)
        estimator.observe(100.0)
        assert estimator.estimate() == pytest.approx(100.0)

    def test_ewma_smoothing(self):
        estimator = DemandEstimator(alpha=0.5, headroom=1.0)
        estimator.observe(100.0)
        estimator.observe(200.0)
        assert estimator.raw_estimate == pytest.approx(150.0)

    def test_headroom_applied_to_estimate(self):
        estimator = DemandEstimator(alpha=1.0, headroom=1.2)
        estimator.observe(100.0)
        assert estimator.estimate() == pytest.approx(120.0)

    def test_negative_demand_rejected(self):
        estimator = DemandEstimator()
        with pytest.raises(ValueError):
            estimator.observe(-1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DemandEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            DemandEstimator(headroom=0.5)

    def test_reset(self):
        estimator = DemandEstimator()
        estimator.observe(50.0)
        estimator.reset()
        assert estimator.num_observations == 0
        assert estimator.raw_estimate == 0.0

    def test_converges_to_constant_demand(self):
        estimator = DemandEstimator(alpha=0.5, headroom=1.0)
        for _ in range(30):
            estimator.observe(80.0)
        assert estimator.estimate() == pytest.approx(80.0, rel=1e-6)


@pytest.fixture
def manager(small_pipeline):
    return ResourceManager(
        small_pipeline,
        num_workers=10,
        latency_slo_ms=150.0,
        demand_quantum_qps=10.0,
        invocation_interval_s=10.0,
        utilization_target=1.0,
    )


class TestResourceManager:
    def test_initial_allocation_required(self, manager):
        assert manager.should_reallocate(0.0)

    def test_allocate_produces_feasible_plan(self, manager):
        manager.observe_demand(0.0, 40.0)
        plan = manager.allocate(0.0)
        assert plan.feasible
        assert plan.total_workers <= manager.num_workers
        assert manager.current_plan is plan

    def test_provisioning_target_quantised_upward(self, manager):
        manager.observe_demand(0.0, 33.0)
        target = manager.provisioning_target_qps()
        assert target % manager.demand_quantum_qps == pytest.approx(0.0)
        assert target >= 33.0

    @pytest.mark.parametrize(
        "estimate, target",
        [(33.0, 40.0), (101.0, 120.0), (120.0, 120.0), (130.0, 140.0), (140.0, 147.0), (250.0, 262.5), (613.0, 643.65)],
    )
    def test_provisioning_target_mapping(self, small_pipeline, estimate, target):
        """Multiples of the 20 QPS quantum below 133 1/3 QPS; 1.05x the estimate above it."""
        manager = ResourceManager(small_pipeline, num_workers=10, headroom=1.0)
        manager.observe_demand(0.0, estimate)
        assert manager.provisioning_target_qps() == pytest.approx(target, rel=1e-12)

    def test_min_demand_floor(self, manager):
        manager.observe_demand(0.0, 0.0)
        assert manager.provisioning_target_qps() >= manager.min_demand_qps

    def test_periodic_invocation_trigger(self, manager):
        manager.observe_demand(0.0, 40.0)
        manager.allocate(0.0)
        assert not manager.should_reallocate(5.0)
        assert manager.should_reallocate(10.0)

    def test_significant_change_trigger(self, manager):
        manager.observe_demand(0.0, 40.0)
        manager.allocate(0.0)
        # A big jump in demand triggers re-allocation before the periodic interval.
        for t in range(1, 4):
            manager.observe_demand(float(t), 200.0)
        assert manager.should_reallocate(4.0)

    def test_plan_cache_hit_for_same_demand(self, manager):
        manager.observe_demand(0.0, 40.0)
        manager.allocate(0.0)
        solves_before = manager.stats.milp_solves
        manager.allocate(10.0)
        assert manager.stats.milp_solves == solves_before
        assert manager.stats.cache_hits >= 1

    def test_mode_switches_to_accuracy_scaling_at_high_demand(self, manager):
        hardware_capacity = manager.max_capacity_qps(restrict_to_best=True)
        manager.observe_demand(0.0, hardware_capacity * 1.5)
        plan = manager.allocate(0.0)
        assert plan.mode == ACCURACY_SCALING

    def test_hardware_mode_at_low_demand(self, manager):
        manager.observe_demand(0.0, 20.0)
        plan = manager.allocate(0.0)
        assert plan.mode == HARDWARE_SCALING
        assert plan.expected_accuracy == pytest.approx(1.0, abs=1e-6)

    def test_explicit_demand_overrides_estimator(self, manager):
        plan = manager.allocate(0.0, demand_qps=60.0)
        assert plan.demand_qps == pytest.approx(60.0)

    def test_stats_track_modes(self, manager):
        manager.observe_demand(0.0, 20.0)
        manager.allocate(0.0)
        assert manager.stats.hardware_plans >= 1
        assert manager.stats.invocations >= 1

    def test_stats_count_incumbents_and_hardware_lp_checks(self, manager):
        hardware_capacity = manager.max_capacity_qps(restrict_to_best=True)
        for t, multiple in enumerate((0.5, 1.3, 1.6, 1.9)):
            manager.allocate(10.0 * t, demand_qps=multiple * hardware_capacity)
        stats = manager.stats
        assert set(stats.incumbents) == {"support", "recent", "milp"}
        # Every solve above the hardware capacity is an accuracy plan whose
        # hardware step ended at its LP.
        assert sum(stats.incumbents.values()) == stats.hardware_lp_infeasible == 3
        assert stats.milp_solves == 4

    def test_last_three_plans_reach_accuracy_scaling(self, manager, monkeypatch):
        from repro.core.allocation import AllocationProblem

        received = []
        real = AllocationProblem.solve

        def spy(problem, demand_qps, preferred_variants=None, recent_configs=()):
            received.append(set(recent_configs))
            return real(problem, demand_qps, preferred_variants=preferred_variants, recent_configs=recent_configs)

        monkeypatch.setattr(AllocationProblem, "solve", spy)
        hardware_capacity = manager.max_capacity_qps(restrict_to_best=True)
        plans = [
            manager._solve(multiple * hardware_capacity) for multiple in (0.3, 0.6, 1.2, 1.5, 1.8)
        ]
        keys = [{(a.task, a.variant_name, a.batch_size) for a in plan.allocations} for plan in plans]
        assert received[0] == set()
        for k in range(1, len(plans)):
            assert received[k] == set().union(*keys[max(0, k - 3):k])

    def test_max_capacity_with_accuracy_scaling_larger(self, manager):
        hardware = manager.max_capacity_qps(restrict_to_best=True)
        full = manager.max_capacity_qps()
        assert full >= hardware


class TestPlanStability:
    def test_no_switch_for_equivalent_plan_at_same_demand(self, manager):
        manager.observe_demand(0.0, 40.0)
        first = manager.allocate(0.0)
        # Small demand wobble below the provisioned level must not replace the plan.
        manager.observe_demand(10.0, 38.0)
        second = manager.allocate(10.0)
        assert second is first

    def test_switch_when_demand_exceeds_provisioned(self, manager):
        manager.observe_demand(0.0, 30.0)
        first = manager.allocate(0.0)
        for t in range(1, 6):
            manager.observe_demand(float(t), 150.0)
        second = manager.allocate(10.0)
        assert second is not first
        assert second.demand_qps > first.demand_qps

    def test_scale_down_requires_hysteresis_margin(self, manager):
        manager.observe_demand(0.0, 100.0)
        first = manager.allocate(0.0)
        # Demand drops slightly: keep the provisioned plan.
        for t in range(1, 6):
            manager.observe_demand(float(t), 85.0)
        second = manager.allocate(10.0)
        assert second is first
        # Demand collapses: scale down.
        for t in range(6, 30):
            manager.observe_demand(float(t), 10.0)
        third = manager.allocate(30.0)
        assert third.total_workers <= first.total_workers

    def test_metadata_multipliers_feed_problem(self, small_pipeline):
        metadata = MetadataStore(small_pipeline)
        manager = ResourceManager(small_pipeline, num_workers=10, metadata=metadata, utilization_target=1.0)
        for _ in range(20):
            metadata.report_multiplier("detect_big", 4.0)
        problem = manager._problem()
        assert problem.multiplicative_factor(small_pipeline.registry.variant("detect_big")) > 2.0
