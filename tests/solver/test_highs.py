"""Tests for the HiGHS call behind :func:`repro.solver.solve`.

Three groups: LP edge cases that exercise the model's matrix form (equality
rows, shifted and free bounds, negative right-hand sides); the decoding of
every ``scipy.optimize.milp`` status code, driven by a stand-in ``milp``;
and how the keyword options reach HiGHS and partition the solution cache.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from repro.solver import (
    DEFAULT_SOLVER_OPTIONS,
    ERROR,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Model,
    SolutionCache,
    SolverError,
    solve,
)


def linear_model(c, A_ub=(), b_ub=(), A_eq=(), b_eq=(), lb=None, ub=None, maximize=False) -> Model:
    """Build ``min``/``max c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq`` from raw rows."""
    n = len(c)
    m = Model("lp")
    xs = [
        m.add_var(f"x{i}", lb=0.0 if lb is None else lb[i], ub=math.inf if ub is None else ub[i])
        for i in range(n)
    ]

    def row(coeffs):
        expr = xs[0] * float(coeffs[0])
        for x, a in zip(xs[1:], coeffs[1:]):
            expr = expr + x * float(a)
        return expr

    for coeffs, rhs in zip(A_ub, b_ub):
        m.add_constraint(row(coeffs) <= float(rhs))
    for coeffs, rhs in zip(A_eq, b_eq):
        m.add_constraint(row(coeffs) == float(rhs))
    (m.maximize if maximize else m.minimize)(row(c))
    return m


def small_milp() -> Model:
    """max 3x + y s.t. x + y <= 4.5, x integer <= 3; optimum 10.5 at (3, 1.5)."""
    m = Model("small")
    x = m.add_var("x", ub=3, integer=True)
    y = m.add_var("y", ub=10)
    m.add_constraint(x + y <= 4.5)
    m.maximize(3 * x + y)
    return m


class TestLinearProgramEdgeCases:
    def test_simple_maximisation(self):
        solution = solve(linear_model([1.0, 2.0], A_ub=[[1, 1], [1, 0]], b_ub=[4, 3], maximize=True), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(8.0, abs=1e-7)
        assert solution["x1"] == pytest.approx(4.0, abs=1e-7)

    def test_equality_constraints(self):
        # min x + y s.t. x + y = 5, x - y = 1  -> x=3, y=2
        solution = solve(linear_model([1.0, 1.0], A_eq=[[1, 1], [1, -1]], b_eq=[5, 1]), cache=False)
        assert solution.status == OPTIMAL
        assert solution["x0"] == pytest.approx(3.0, abs=1e-7)
        assert solution["x1"] == pytest.approx(2.0, abs=1e-7)

    def test_upper_bounds_respected(self):
        solution = solve(linear_model([1.0], ub=[2.5], maximize=True), cache=False)
        assert solution["x0"] == pytest.approx(2.5, abs=1e-7)

    def test_shifted_lower_bounds(self):
        solution = solve(linear_model([1.0], lb=[3.0], ub=[10.0]), cache=False)
        assert solution["x0"] == pytest.approx(3.0, abs=1e-7)

    def test_negative_and_free_lower_bounds(self):
        # min x0 + x1 with x0 >= -5 (bound) and a free x1 held by x1 >= -2 (row)
        m = linear_model([1.0, 1.0], A_ub=[[0, -1]], b_ub=[2], lb=[-5.0, -math.inf])
        solution = solve(m, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(-7.0, abs=1e-7)

    def test_infeasible_problem(self):
        solution = solve(linear_model([1.0], A_ub=[[1.0]], b_ub=[1.0], A_eq=[[1.0]], b_eq=[5.0]), cache=False)
        assert solution.status == INFEASIBLE
        assert solution.x.size == 0

    def test_unbounded_problem(self):
        solution = solve(linear_model([1.0], maximize=True), cache=False)
        assert solution.status in (UNBOUNDED, INFEASIBLE)
        assert not solution.is_optimal

    def test_negative_rhs_handled(self):
        # x - y <= -1 means y >= x + 1; min y -> x=0, y=1
        solution = solve(linear_model([0.0, 1.0], A_ub=[[1, -1]], b_ub=[-1]), cache=False)
        assert solution["x1"] == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_problem(self):
        m = linear_model(
            [1.0, 1.0], A_ub=[[1, 0], [1, 0], [0, 1], [1, 1]], b_ub=[2, 2, 2, 2], A_eq=[[1, 1]], b_eq=[2]
        )
        solution = solve(m, cache=False)
        assert solution.objective == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_objective_constant_is_reported(self, maximize):
        m = Model("offset")
        x = m.add_var("x", lb=1.0, ub=4.0)
        (m.maximize if maximize else m.minimize)(2 * x + 5.0)
        solution = solve(m, cache=False)
        assert solution.objective == pytest.approx(13.0 if maximize else 7.0, abs=1e-9)


class TestRandomLpsMatchLinprog:
    @pytest.mark.parametrize("seed", range(6))
    def test_objective_matches_direct_linprog(self, seed):
        """The model's matrix form and sign handling agree with ``linprog`` on the raw arrays."""
        rng = np.random.default_rng(seed)
        n, rows = 5, 4
        A = rng.uniform(0.1, 2.0, size=(rows, n))
        b = A @ rng.uniform(0.5, 2.0, size=n) + rng.uniform(0.5, 1.0, size=rows)
        c = rng.uniform(-1.0, 1.0, size=n)
        maximize = bool(seed % 2)
        solution = solve(linear_model(c, A_ub=A, b_ub=b, ub=[10.0] * n, maximize=maximize), cache=False)
        reference = optimize.linprog(-c if maximize else c, A_ub=A, b_ub=b, bounds=[(0, 10.0)] * n)
        assert solution.status == OPTIMAL and reference.success
        expected = -reference.fun if maximize else reference.fun
        assert solution.objective == pytest.approx(expected, abs=1e-6)


def fake_milp(status, x=None, message="stub", mip_gap=0.0):
    def milp(**kwargs):
        return SimpleNamespace(status=status, x=None if x is None else np.array(x, dtype=float),
                               message=message, mip_gap=mip_gap)

    return milp


class TestStatusDecoding:
    """Each ``scipy.optimize.milp`` status code maps to one solution status."""

    @pytest.mark.parametrize(
        "status, x, expected, proven",
        [
            (0, [3.0, 1.5], OPTIMAL, True),
            (1, [3.0, 1.5], OPTIMAL, False),  # limit reached with an incumbent
            (1, None, ERROR, False),  # limit reached before any incumbent
            (2, None, INFEASIBLE, False),
            (3, None, UNBOUNDED, False),
            (4, None, ERROR, False),
        ],
    )
    def test_status_code_mapping(self, monkeypatch, status, x, expected, proven):
        monkeypatch.setattr(optimize, "milp", fake_milp(status, x))
        solution = solve(small_milp(), cache=False)
        assert solution.status == expected
        assert solution.info["status_code"] == status
        assert solution.info["optimal_proven"] is proven

    def test_integers_snapped_and_objective_recomputed(self, monkeypatch):
        monkeypatch.setattr(optimize, "milp", fake_milp(0, [2.9999996, 1.4000004]))
        solution = solve(small_milp(), cache=False)
        assert solution["x"] == 3.0  # snapped exactly
        assert solution["y"] == 1.4000004  # continuous left alone
        assert solution.objective == pytest.approx(3 * 3.0 + 1.4000004, abs=1e-12)

    def test_milp_exception_becomes_solver_error(self, monkeypatch):
        def broken(**kwargs):
            raise ValueError("bad input")

        monkeypatch.setattr(optimize, "milp", broken)
        with pytest.raises(SolverError):
            solve(small_milp(), cache=False)


class TestHighsOptions:
    @pytest.fixture
    def seen_options(self, monkeypatch):
        seen = []
        real = optimize.milp

        def spy(**kwargs):
            seen.append(dict(kwargs["options"]))  # milp pops node_limit from the dict it gets
            return real(**kwargs)

        monkeypatch.setattr(optimize, "milp", spy)
        return seen

    @pytest.mark.parametrize(
        "option, value",
        [("time_limit", 5.0), ("mip_rel_gap", 1e-4), ("presolve", False), ("node_limit", 1000)],
    )
    def test_option_reaches_highs(self, seen_options, option, value):
        solution = solve(small_milp(), cache=False, **{option: value})
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(10.5)
        assert seen_options[-1][option] == value

    def test_unset_limits_are_not_passed(self, seen_options):
        solve(small_milp(), cache=False, time_limit=None, node_limit=None)
        assert seen_options[-1] == {"mip_rel_gap": 1e-6, "presolve": True}

    def test_unknown_option_raises_and_caches_nothing(self):
        cache = SolutionCache(maxsize=4)
        with pytest.raises(TypeError):
            solve(small_milp(), cache=cache, max_nodes=10)
        assert len(cache) == 0

    def test_default_options_are_read_only(self):
        assert dict(DEFAULT_SOLVER_OPTIONS) == {"mip_rel_gap": 2e-3, "time_limit": 3.0}
        with pytest.raises(TypeError):
            DEFAULT_SOLVER_OPTIONS["time_limit"] = 60.0  # type: ignore[index]


class TestCacheKeys:
    def test_option_order_does_not_matter(self):
        cache = SolutionCache(maxsize=4)
        solve(small_milp(), cache=cache, mip_rel_gap=1e-3, time_limit=5.0)
        again = solve(small_milp(), cache=cache, time_limit=5.0, mip_rel_gap=1e-3)
        assert again.info["cache"] == "hit"

    def test_errors_are_not_cached(self, monkeypatch):
        cache = SolutionCache(maxsize=4)
        monkeypatch.setattr(optimize, "milp", fake_milp(4))
        assert solve(small_milp(), cache=cache).status == ERROR
        assert len(cache) == 0

    def test_infeasible_results_are_cached(self):
        cache = SolutionCache(maxsize=4)
        model = linear_model([1.0], A_ub=[[1.0]], b_ub=[1.0], A_eq=[[1.0]], b_eq=[5.0])
        solve(model, cache=cache)
        again = solve(model, cache=cache)
        assert again.status == INFEASIBLE and again.info["cache"] == "hit"

    def test_fingerprint_stamped_on_cached_solves_only(self):
        cached = solve(small_milp(), cache=SolutionCache(maxsize=4))
        uncached = solve(small_milp(), cache=False)
        assert len(cached.info["fingerprint"]) == 16
        assert "fingerprint" not in uncached.info
