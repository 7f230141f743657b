"""Tests for the fingerprint-keyed solution cache behind :func:`repro.solver.solve`."""

import pytest

from repro.solver import (
    Model,
    SolutionCache,
    default_cache,
    fingerprint_model,
    solve,
)


def build_allocation_like_model(demand: float = 90.0, cap: int = 10) -> Model:
    """A miniature accuracy-scaling MILP: replicas + flows, covering a demand."""
    m = Model("alloc-mini")
    throughputs = [12.0, 20.0, 33.0]
    accuracies = [0.98, 0.9, 0.8]
    xs = [m.add_var(f"x{i}", ub=cap, integer=True) for i in range(3)]
    gs = [m.add_var(f"g{i}") for i in range(3)]
    total_flow = gs[0] + gs[1] + gs[2]
    m.add_constraint(total_flow == demand, name="demand")
    for i in range(3):
        m.add_constraint(gs[i] <= xs[i] * throughputs[i], name=f"cap{i}")
    m.add_constraint(xs[0] + xs[1] + xs[2] <= cap, name="cluster")
    acc = gs[0] * (accuracies[0] / demand)
    for i in (1, 2):
        acc = acc + gs[i] * (accuracies[i] / demand)
    m.maximize(acc)
    return m


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
        first.values["x0"] = -42.0
        second = solve(model, cache=cache)
        assert "poison" not in second.info
        assert second.values["x0"] != -42.0

    def test_fingerprint_is_content_addressed(self):
        a = fingerprint_model(build_allocation_like_model())
        b = fingerprint_model(build_allocation_like_model())
        c = fingerprint_model(build_allocation_like_model(demand=91.0))
        assert a == b
        assert a != c

    def test_default_cache_exists_and_counts(self):
        before = default_cache.stats["misses"]
        solve(build_allocation_like_model(demand=123.456))
        assert default_cache.stats["misses"] >= before + 1
