"""Property-based tests for the core control plane (hypothesis)."""


import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import MostAccurateFirst, WorkerState
from repro.core.pipeline import Edge, Pipeline, Task
from repro.core.profiles import ModelVariant, ProfileRegistry
from repro.core.resource_manager import DemandEstimator


accuracy_strategy = st.floats(min_value=0.3, max_value=1.0)
beta_strategy = st.floats(min_value=0.5, max_value=10.0)
factor_strategy = st.floats(min_value=0.5, max_value=3.0)


def build_chain_pipeline(accuracies, betas, factors, slo_ms=400.0):
    """A 2-task chain whose variant profiles come from hypothesis-drawn values."""
    registry = ProfileRegistry()
    for task_index, task_name in enumerate(["stage0", "stage1"]):
        for variant_index, (acc, beta) in enumerate(zip(accuracies[task_index], betas[task_index])):
            registry.register(
                task_name,
                ModelVariant(
                    name=f"{task_name}_v{variant_index}",
                    family=f"fam{task_index}",
                    accuracy=acc,
                    base_latency_ms=1.0,
                    per_item_latency_ms=beta,
                    multiplicative_factor=factors[task_index],
                    batch_sizes=(1, 2, 4, 8),
                ),
            )
    return Pipeline(
        "hyp_chain",
        [Task("stage0"), Task("stage1")],
        [Edge("stage0", "stage1", 1.0)],
        registry,
        latency_slo_ms=slo_ms,
    )


class TestPipelineAccuracyProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        acc0=st.lists(accuracy_strategy, min_size=1, max_size=3),
        acc1=st.lists(accuracy_strategy, min_size=1, max_size=3),
    )
    def test_end_to_end_accuracy_bounded_by_weakest_stage(self, acc0, acc1):
        pipeline = build_chain_pipeline(
            [acc0, acc1],
            [[2.0] * len(acc0), [2.0] * len(acc1)],
            [1.0, 1.0],
        )
        selection = pipeline.max_accuracy_selection()
        value = pipeline.end_to_end_accuracy(selection)
        assert value <= min(max(acc0), max(acc1)) + 1e-9
        assert value == pytest.approx(max(acc0) * max(acc1))

    @settings(max_examples=50, deadline=None)
    @given(
        acc0=st.lists(accuracy_strategy, min_size=2, max_size=4, unique=True),
    )
    def test_path_accuracy_monotone_in_variant_accuracy(self, acc0):
        pipeline = build_chain_pipeline([sorted(acc0), [1.0]], [[2.0] * len(acc0), [2.0]], [1.0, 1.0])
        variants = pipeline.registry.variants("stage0")  # most accurate first
        accuracies = [
            pipeline.path_accuracy({"stage0": v, "stage1": pipeline.registry.most_accurate("stage1")}, ["stage0", "stage1"])
            for v in variants
        ]
        assert accuracies == sorted(accuracies, reverse=True)

    @settings(max_examples=30, deadline=None)
    @given(factor=factor_strategy, accuracy=accuracy_strategy)
    def test_config_path_multipliers_scale_with_upstream_factor(self, factor, accuracy):
        pipeline = build_chain_pipeline([[accuracy], [1.0]], [[2.0], [2.0]], [factor, 1.0])
        paths = AllocationProblem(pipeline, num_workers=4).config_paths()
        # One variant per task, four batch sizes each, none pruned by the budget.
        assert len(paths) == 16
        for path in paths:
            assert path.multipliers == (1.0, pytest.approx(factor))


class TestAllocationProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        demand=st.floats(min_value=5.0, max_value=120.0),
        factor=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_plan_capacity_always_covers_demand(self, demand, factor):
        pipeline = build_chain_pipeline([[1.0, 0.7], [1.0, 0.8]], [[4.0, 1.5], [3.0, 1.0]], [factor, 1.0])
        problem = AllocationProblem(pipeline, num_workers=30, latency_slo_ms=400.0, utilization_target=1.0)
        plan = problem.solve(demand)
        assume(plan.feasible)
        assert plan.capacity_qps("stage0") >= demand - 1e-6
        assert plan.capacity_qps("stage1") >= demand * factor - 1e-3
        assert plan.total_workers <= 30

    @settings(max_examples=15, deadline=None)
    @given(demand=st.floats(min_value=5.0, max_value=60.0))
    def test_hardware_plan_accuracy_is_maximal(self, demand):
        pipeline = build_chain_pipeline([[1.0, 0.6], [1.0, 0.6]], [[3.0, 1.0], [3.0, 1.0]], [1.0, 1.0])
        problem = AllocationProblem(pipeline, num_workers=40, latency_slo_ms=400.0, utilization_target=1.0)
        plan = problem.solve_hardware_scaling(demand)
        assume(plan is not None)
        assert plan.expected_accuracy == pytest.approx(1.0, abs=1e-6)


class TestMostAccurateFirstProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        capacities=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=5),
        demand=st.floats(min_value=1.0, max_value=300.0),
    )
    def test_frontend_probabilities_never_exceed_one(self, capacities, demand):
        registry = ProfileRegistry()
        registry.register("solo", ModelVariant("solo_v", "fam", 1.0, 1.0, 2.0))
        pipeline = Pipeline("solo_pipe", [Task("solo")], [], registry, latency_slo_ms=200.0)
        workers = [
            WorkerState(
                worker_id=f"w{i}",
                task="solo",
                variant_name="solo_v",
                accuracy=1.0,
                capacity_qps=capacity,
                latency_ms=10.0,
                batch_size=4,
            )
            for i, capacity in enumerate(capacities)
        ]
        plan = MostAccurateFirst(pipeline).build(workers, demand_qps=demand)
        routed = plan.frontend_table.routed_fraction("solo")
        assert routed <= 1.0 + 1e-9
        expected = min(1.0, sum(capacities) / demand)
        assert routed == pytest.approx(expected, abs=1e-6)
        # Conservation: routed fraction + unplaced fraction == 1.
        assert routed + plan.unplaced_fraction["solo"] == pytest.approx(1.0, abs=1e-6)


class TestDemandEstimatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50), alpha=st.floats(min_value=0.05, max_value=1.0))
    def test_estimate_bounded_by_observed_range(self, samples, alpha):
        estimator = DemandEstimator(alpha=alpha, headroom=1.0)
        for sample in samples:
            estimator.observe(sample)
        assert min(samples) - 1e-6 <= estimator.estimate() <= max(samples) + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=0.0, max_value=1e4), headroom=st.floats(min_value=1.0, max_value=2.0))
    def test_headroom_scales_estimate(self, value, headroom):
        estimator = DemandEstimator(alpha=0.5, headroom=headroom)
        estimator.observe(value)
        assert estimator.estimate() == pytest.approx(value * headroom)
