"""The accuracy-scaling MILP solves over the maximal-batch paths only.

A path is dominated when another latency-feasible path of the same branch and
variant sequence has a batch at least as large at every hop and a larger one
at some hop.  The structural tests compare the one-hop filter in
``AllocationProblem._extend_paths`` with the pairwise definition, and check
that only the accuracy-scaling model is reduced.  The slow test bounds the
objective the reduction gives up on a demand grid, and validates every plan of
that grid against the full model.
"""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.core import AllocationProblem, PlanValidationError, validate_plan
from repro.core.allocation import VariantAllocation, build_accuracy_scaling_model
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

#: pipeline -> (factory, paths of the full model, maximal paths)
PIPELINES = {
    "traffic": (traffic_analysis_pipeline, 1863, 218),
    "social": (social_media_pipeline, 519, 69),
}

#: demands of the loss-bound grid, as multiples of the hardware-scaling capacity
GRID = (1.1, 1.3, 1.5, 1.8, 2.1, 2.4, 2.7, 3.0)

#: the largest relative objective loss measured on the grid is 0.14% (traffic, 2.7x)
MAX_RELATIVE_LOSS = 0.0015


def make_problem(name, **kwargs):
    factory, *_ = PIPELINES[name]
    return AllocationProblem(factory(), num_workers=20, **kwargs)


def batches(path):
    return tuple(config.batch_size for config in path.configs)


def dominates(a, b):
    """Batch vector ``a`` is at least ``b`` at every hop and differs somewhere."""
    return a != b and all(x >= y for x, y in zip(a, b))


def groups(paths):
    """``(branch, variant sequence)`` -> batch vectors of ``paths``."""
    grouped = defaultdict(list)
    for path in paths:
        grouped[path.branch_index, path.variant_key].append(batches(path))
    return grouped


@pytest.fixture(scope="module", params=sorted(PIPELINES))
def reduction(request):
    problem = make_problem(request.param)
    return request.param, problem, problem.config_paths(), problem.config_paths(maximal_only=True)


class TestStructure:
    def test_path_counts(self, reduction):
        name, _, full, kept = reduction
        _, num_full, num_kept = PIPELINES[name]
        assert (len(full), len(kept)) == (num_full, num_kept)

    def test_kept_paths_are_a_subsequence_of_the_full_enumeration(self, reduction):
        _, _, full, kept = reduction
        kept_keys = {path.key for path in kept}
        assert [path.key for path in kept] == [path.key for path in full if path.key in kept_keys]

    def test_no_kept_path_is_dominated(self, reduction):
        _, _, full, kept = reduction
        feasible = groups(full)
        for path in kept:
            rivals = feasible[path.branch_index, path.variant_key]
            assert not any(dominates(rival, batches(path)) for rival in rivals), path.key

    def test_every_dropped_path_is_dominated_by_a_kept_one(self, reduction):
        _, _, full, kept = reduction
        kept_keys = {path.key for path in kept}
        maximal = groups(kept)
        for path in full:
            if path.key in kept_keys:
                continue
            rivals = maximal[path.branch_index, path.variant_key]
            assert any(dominates(rival, batches(path)) for rival in rivals), path.key

    def test_only_the_accuracy_scaling_model_is_reduced(self, reduction):
        _, problem, full, kept = reduction
        num_x = len(problem.configurations())
        assert build_accuracy_scaling_model(problem, 100.0).c.size == num_x + len(kept)
        _, configs, paths = problem._build_model(demand_qps=None, mode="max_throughput", restrict_to_best=False)
        assert (len(configs), len(paths)) == (num_x, len(full))


class TestValidatePlan:
    @pytest.fixture(scope="class")
    def solved(self):
        problem = make_problem("traffic")
        capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
        plan = problem.solve_accuracy_scaling(2.0 * capacity)
        assert plan is not None and plan.mode == "accuracy"
        return problem, plan

    def test_accepts_the_solved_plan(self, solved):
        validate_plan(*solved)

    def test_rejects_too_many_replicas(self, solved):
        problem, plan = solved
        a = plan.allocations[0]
        extra = VariantAllocation(a.task, a.variant_name, a.batch_size, problem.num_workers, a.throughput_qps,
                                  a.latency_ms, a.accuracy)
        with pytest.raises(PlanValidationError, match="replicas"):
            validate_plan(problem, replace(plan, allocations=plan.allocations + [extra]))

    def test_rejects_a_configuration_on_no_feasible_path(self, solved):
        problem, plan = solved
        a = plan.allocations[0]
        variant = problem.pipeline.registry.variant(a.variant_name)
        too_slow = max(variant.batch_sizes)
        assert (a.task, a.variant_name, too_slow) not in {
            c.key for path in problem.config_paths() for c in path.configs
        }
        moved = replace(a, batch_size=too_slow)
        with pytest.raises(PlanValidationError, match="no latency-feasible path"):
            validate_plan(problem, replace(plan, allocations=[moved] + plan.allocations[1:]))

    def test_rejects_ratios_that_do_not_cover_a_branch(self, solved):
        problem, plan = solved
        ratios = {key: 0.5 * ratio for key, ratio in plan.path_ratios.items()}
        with pytest.raises(PlanValidationError, match="sum to"):
            validate_plan(problem, replace(plan, path_ratios=ratios))

    def test_rejects_an_underprovisioned_variant(self, solved):
        problem, plan = solved
        with pytest.raises(PlanValidationError, match="routed"):
            validate_plan(problem, replace(plan, demand_qps=1.5 * plan.demand_qps))

    def test_best_effort_plan_is_checked_for_workers_and_configurations_only(self, solved):
        problem, plan = solved
        validate_plan(problem, replace(plan, feasible=False, path_ratios={}))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_reduction_loses_at_most_the_measured_bound(name, monkeypatch):
    """Reduced vs full accuracy-scaling objective on the demand grid, to a 1e-6 gap."""
    problem = make_problem(name, utilization_target=0.75, solver_options={"mip_rel_gap": 1e-6})
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    reduced = {m: problem.solve_accuracy_scaling(m * capacity) for m in GRID}
    config_paths = AllocationProblem.config_paths
    monkeypatch.setattr(
        AllocationProblem,
        "config_paths",
        lambda self, restrict_to_best=False, maximal_only=False: config_paths(self, restrict_to_best),
    )
    full = {m: problem.solve_accuracy_scaling(m * capacity) for m in GRID}
    for m in GRID:
        assert reduced[m] is not None and full[m] is not None, m
        validate_plan(problem, reduced[m])
        validate_plan(problem, full[m])
        assert reduced[m].expected_accuracy >= (1.0 - MAX_RELATIVE_LOSS) * full[m].expected_accuracy, m
