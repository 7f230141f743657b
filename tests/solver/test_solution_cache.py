"""Tests for the fingerprint-keyed solution cache behind :func:`repro.solver.solve`."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.allocation import ACCURACY_SCALING, AllocationProblem
from repro.solver import (
    SolutionCache,
    default_cache,
    fingerprint_model,
    solve,
)
from repro.zoo import linear_pipeline
from tests.conftest import standard_form


def build_allocation_like_model(demand: float = 90.0, cap: int = 10):
    """A miniature accuracy-scaling MILP: replicas ``x0..x2`` + flows ``g0..g2``, covering a demand."""
    throughputs = [12.0, 20.0, 33.0]
    accuracies = [0.98, 0.9, 0.8]
    capacity = np.hstack([-np.diag(throughputs), np.eye(3)])  # g_i <= x_i * throughput_i
    cluster = [1, 1, 1, 0, 0, 0]
    return standard_form(
        [0, 0, 0] + [a / demand for a in accuracies],
        A_ub=np.vstack([capacity, cluster]),
        b_ub=[0, 0, 0, cap],
        A_eq=[[0, 0, 0, 1, 1, 1]],
        b_eq=[demand],
        ub=[cap] * 3 + [np.inf] * 3,
        integer=[1, 1, 1, 0, 0, 0],
        maximize=True,
    )


class TestSolutionCache:
    def test_cache_miss_then_hit_observable_via_info(self):
        cache = SolutionCache(maxsize=4)
        model = build_allocation_like_model()
        first = solve(model, cache=cache)
        assert first.info["cache"] == "miss"
        second = solve(model, cache=cache)
        assert second.info["cache"] == "hit"
        assert second.objective == pytest.approx(first.objective, abs=1e-9)
        assert cache.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_rebuilt_identical_model_hits(self):
        cache = SolutionCache(maxsize=4)
        solve(build_allocation_like_model(), cache=cache)
        second = solve(build_allocation_like_model(), cache=cache)
        assert second.info["cache"] == "hit"

    def test_model_change_misses(self):
        cache = SolutionCache(maxsize=4)
        solve(build_allocation_like_model(demand=90.0), cache=cache)
        other = solve(build_allocation_like_model(demand=91.0), cache=cache)
        assert other.info["cache"] == "miss"

    def test_options_partition_the_cache(self):
        cache = SolutionCache(maxsize=8)
        model = build_allocation_like_model()
        solve(model, cache=cache)
        tweaked = solve(model, cache=cache, mip_rel_gap=1e-3)
        assert tweaked.info["cache"] == "miss"  # different options, different key

    def test_cache_disabled(self):
        model = build_allocation_like_model()
        first = solve(model, cache=False)
        assert first.info["cache"] == "off"

    def test_lru_eviction(self):
        cache = SolutionCache(maxsize=2)
        for demand in (80.0, 90.0, 100.0):
            solve(build_allocation_like_model(demand=demand), cache=cache)
        assert len(cache) == 2
        oldest = solve(build_allocation_like_model(demand=80.0), cache=cache)
        assert oldest.info["cache"] == "miss"  # evicted

    def test_cached_solution_is_isolated_from_caller_mutation(self):
        cache = SolutionCache(maxsize=4)
        model = build_allocation_like_model()
        first = solve(model, cache=cache)
        first.info["poison"] = True
        second = solve(model, cache=cache)
        second.info["poison"] = True
        assert "poison" not in solve(model, cache=cache).info

    def test_cached_x_is_isolated_from_caller_mutation(self):
        cache = SolutionCache(maxsize=4)
        model = build_allocation_like_model()
        miss = solve(model, cache=cache)
        expected = miss.x.copy()
        miss.x[0] = 99.0
        hit = solve(model, cache=cache)
        assert hit.info["cache"] == "hit"
        assert np.array_equal(hit.x, expected)
        hit.x[0] = 99.0
        again = solve(model, cache=cache)
        assert np.array_equal(again.x, expected)
        assert again.objective == miss.objective

    def test_fingerprint_is_content_addressed(self):
        a = fingerprint_model(build_allocation_like_model())
        b = fingerprint_model(build_allocation_like_model())
        c = fingerprint_model(build_allocation_like_model(demand=91.0))
        assert a == b
        assert a != c

    def test_fingerprint_includes_sense(self):
        """The same arrays minimised and maximised report objectives of opposite sign."""
        minimised = build_allocation_like_model()
        maximised = replace(minimised, sense=-minimised.sense)
        assert fingerprint_model(minimised) != fingerprint_model(maximised)

    def test_default_cache_exists_and_counts(self):
        before = default_cache.stats["misses"]
        solve(build_allocation_like_model(demand=123.456))
        assert default_cache.stats["misses"] >= before + 1


class TestAccuracyScalingModelCache:
    """A real accuracy-scaling MILP, rebuilt each control period from the same
    state, is answered from the cache with the solve's own plan."""

    @pytest.fixture(scope="class")
    def model(self):
        pipeline = linear_pipeline(num_tasks=2, variants_per_task=3, latency_slo_ms=300.0)
        problem = AllocationProblem(
            pipeline, num_workers=12, latency_slo_ms=300.0, utilization_target=1.0
        )
        demand = problem.max_supported_demand(restrict_to_best=True).max_demand_qps * 1.3
        return problem._build_model(demand_qps=demand, mode=ACCURACY_SCALING, restrict_to_best=False)[0]

    def test_solves_to_optimality(self, model):
        assert solve(model, cache=False).is_optimal

    def test_repeated_solves_hit_with_the_same_plan(self, model):
        cache = SolutionCache(maxsize=8)
        first = solve(model, cache=cache)
        repeats = [solve(model, cache=cache) for _ in range(3)]
        assert first.info["cache"] == "miss"
        assert cache.hits == 3
        for again in repeats:
            assert again.is_optimal and again.info["cache"] == "hit"
            assert again.objective == first.objective
            assert np.array_equal(again.x, first.x)
