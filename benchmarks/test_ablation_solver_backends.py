"""Solver benchmark: HiGHS on the accuracy-scaling problem.

DESIGN.md calls out the solver substrate as a substitution for Gurobi; this
benchmark times :func:`repro.solver.solve` (HiGHS) on a mid-size
accuracy-scaling MILP, and the solution-cache hit the control plane takes
when consecutive control periods build the same model.  HiGHS time on the
paper workloads is measured by ``benchmarks/e2e`` (``solver.highs.*``).
"""

import pytest

from repro.core.allocation import build_accuracy_scaling_model, AllocationProblem
from repro.solver import SolutionCache, solve
from repro.zoo import linear_pipeline

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def ablation_model():
    # A mid-size synthetic pipeline preserves the structure of the real
    # allocation MILP at a fraction of its size.
    pipeline = linear_pipeline(num_tasks=2, variants_per_task=3, latency_slo_ms=300.0)
    problem = AllocationProblem(pipeline, num_workers=12, latency_slo_ms=300.0, utilization_target=1.0)
    demand = problem.max_supported_demand(restrict_to_best=True).max_demand_qps * 1.3
    return build_accuracy_scaling_model(problem, demand)


def test_solver_backend_scipy_highs(benchmark, ablation_model):
    solution = benchmark.pedantic(solve, args=(ablation_model,), kwargs={"cache": False}, rounds=3, iterations=1)
    assert solution.is_optimal


def test_solver_solution_cache_hit(benchmark, ablation_model):
    cache = SolutionCache(maxsize=8)
    solve(ablation_model, cache=cache)  # populate

    def cached_solve():
        return solve(ablation_model, cache=cache)

    solution = benchmark.pedantic(cached_solve, rounds=3, iterations=1)
    assert solution.is_optimal
    assert solution.info["cache"] == "hit"
    assert cache.hits >= 3
