"""Tests for the HiGHS call behind :func:`repro.solver.solve`.

Three groups: LP edge cases that exercise the array form (equality rows,
shifted and free bounds, negative right-hand sides); the decoding of
every ``scipy.optimize.milp`` status code, driven by a stand-in ``milp``;
and how the keyword options reach HiGHS and partition the solution cache.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import repro.solver as solver
from repro.solver import (
    DEFAULT_SOLVER_OPTIONS,
    ERROR,
    FEASIBILITY_JUMP_OPTION,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SolutionCache,
    SolverError,
    solve,
)
from tests.conftest import standard_form


def small_milp():
    """max 3x + y s.t. x + y <= 4.5, x integer <= 3, y <= 10; optimum 10.5 at (3, 1.5)."""
    return standard_form([3, 1], A_ub=[[1, 1]], b_ub=[4.5], ub=[3, 10], integer=[1, 0], maximize=True)


class TestLinearProgramEdgeCases:
    def test_simple_maximisation(self):
        solution = solve(standard_form([1.0, 2.0], A_ub=[[1, 1], [1, 0]], b_ub=[4, 3], maximize=True), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(8.0, abs=1e-7)
        assert solution.x[1] == pytest.approx(4.0, abs=1e-7)

    def test_equality_constraints(self):
        # min x + y s.t. x + y = 5, x - y = 1  -> x=3, y=2
        solution = solve(standard_form([1.0, 1.0], A_eq=[[1, 1], [1, -1]], b_eq=[5, 1]), cache=False)
        assert solution.status == OPTIMAL
        assert solution.x[0] == pytest.approx(3.0, abs=1e-7)
        assert solution.x[1] == pytest.approx(2.0, abs=1e-7)

    def test_upper_bounds_respected(self):
        solution = solve(standard_form([1.0], ub=[2.5], maximize=True), cache=False)
        assert solution.x[0] == pytest.approx(2.5, abs=1e-7)

    def test_shifted_lower_bounds(self):
        solution = solve(standard_form([1.0], lb=[3.0], ub=[10.0]), cache=False)
        assert solution.x[0] == pytest.approx(3.0, abs=1e-7)

    def test_negative_and_free_lower_bounds(self):
        # min x0 + x1 with x0 >= -5 (bound) and a free x1 held by x1 >= -2 (row)
        form = standard_form([1.0, 1.0], A_ub=[[0, -1]], b_ub=[2], lb=[-5.0, -math.inf])
        solution = solve(form, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(-7.0, abs=1e-7)

    def test_infeasible_problem(self):
        solution = solve(standard_form([1.0], A_ub=[[1.0]], b_ub=[1.0], A_eq=[[1.0]], b_eq=[5.0]), cache=False)
        assert solution.status == INFEASIBLE
        assert solution.x.size == 0

    def test_unbounded_problem(self):
        solution = solve(standard_form([1.0], maximize=True), cache=False)
        assert solution.status in (UNBOUNDED, INFEASIBLE)
        assert not solution.is_optimal

    def test_negative_rhs_handled(self):
        # x - y <= -1 means y >= x + 1; min y -> x=0, y=1
        solution = solve(standard_form([0.0, 1.0], A_ub=[[1, -1]], b_ub=[-1]), cache=False)
        assert solution.x[1] == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_problem(self):
        form = standard_form(
            [1.0, 1.0], A_ub=[[1, 0], [1, 0], [0, 1], [1, 1]], b_ub=[2, 2, 2, 2], A_eq=[[1, 1]], b_eq=[2]
        )
        solution = solve(form, cache=False)
        assert solution.objective == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_objective_reported_in_callers_sense(self, maximize):
        solution = solve(standard_form([2.0], lb=[1.0], ub=[4.0], maximize=maximize), cache=False)
        assert solution.objective == pytest.approx(8.0 if maximize else 2.0, abs=1e-9)


class TestRandomLpsMatchLinprog:
    @pytest.mark.parametrize("seed", range(6))
    def test_objective_matches_direct_linprog(self, seed):
        """The form's sign handling agrees with ``linprog`` on the raw arrays."""
        rng = np.random.default_rng(seed)
        n, rows = 5, 4
        A = rng.uniform(0.1, 2.0, size=(rows, n))
        b = A @ rng.uniform(0.5, 2.0, size=n) + rng.uniform(0.5, 1.0, size=rows)
        c = rng.uniform(-1.0, 1.0, size=n)
        maximize = bool(seed % 2)
        solution = solve(standard_form(c, A_ub=A, b_ub=b, ub=[10.0] * n, maximize=maximize), cache=False)
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
        assert solution.x[0] == 3.0  # snapped exactly
        assert solution.x[1] == 1.4000004  # continuous left alone
        assert solution.objective == pytest.approx(3 * 3.0 + 1.4000004, abs=1e-12)

    def test_milp_exception_becomes_solver_error(self, monkeypatch):
        def broken(**kwargs):
            raise ValueError("bad input")

        monkeypatch.setattr(optimize, "milp", broken)
        with pytest.raises(SolverError):
            solve(small_milp(), cache=False)


class TestArraysReachHighs:
    def test_form_arrays_reach_milp(self, monkeypatch):
        form = standard_form([1.0, 1.0], A_ub=[[1, 2]], b_ub=[4], A_eq=[[1, -1]], b_eq=[0], ub=[3, 3], integer=[1, 0])
        seen = []
        real = optimize.milp

        def spy(**kwargs):
            seen.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(optimize, "milp", spy)
        assert solve(form, cache=False).status == OPTIMAL
        (kwargs,) = seen
        assert kwargs["c"] is form.c and kwargs["integrality"] is form.integrality
        ub_rows, eq_rows = kwargs["constraints"]
        assert (ub_rows.A != form.A_ub).nnz == 0 and (eq_rows.A != form.A_eq).nnz == 0
        assert np.array_equal(ub_rows.ub, form.b_ub) and np.all(ub_rows.lb == -np.inf)
        assert np.array_equal(eq_rows.lb, form.b_eq) and np.array_equal(eq_rows.ub, form.b_eq)
        assert np.array_equal(kwargs["bounds"].lb, form.lb) and np.array_equal(kwargs["bounds"].ub, form.ub)


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

    def test_feasibility_jump_off_reaches_highs(self, seen_options):
        solution = solve(small_milp(), cache=False, feasibility_jump=False)
        assert solution.objective == pytest.approx(10.5)
        assert seen_options[-1][FEASIBILITY_JUMP_OPTION] is False

    def test_feasibility_jump_is_on_by_default(self, seen_options):
        solve(small_milp(), cache=False, feasibility_jump=True)
        solve(small_milp(), cache=False)
        assert all(FEASIBILITY_JUMP_OPTION not in options for options in seen_options)

    def test_unknown_option_raises_and_caches_nothing(self):
        cache = SolutionCache(maxsize=4)
        with pytest.raises(TypeError):
            solve(small_milp(), cache=cache, max_nodes=10)
        assert len(cache) == 0

    def test_default_options_are_read_only(self):
        assert dict(DEFAULT_SOLVER_OPTIONS) == {"mip_rel_gap": 2e-3, "node_limit": 20}
        with pytest.raises(TypeError):
            DEFAULT_SOLVER_OPTIONS["node_limit"] = 1000  # type: ignore[index]


class TestNoOptionWarningEscapes:
    """SciPy passes :data:`FEASIBILITY_JUMP_OPTION` to HiGHS verbatim, and ``solve`` keeps that quiet.

    Under ``simplefilter("error")`` any warning raises, so these fail if SciPy's
    "Unrecognized options" ``RuntimeWarning`` escapes, or if HiGHS stops
    recognising the option and raises its own ``OptimizeWarning``.
    """

    def test_solve(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve(small_milp(), cache=False, feasibility_jump=False)
        assert solution.status == OPTIMAL and solution.objective == pytest.approx(10.5)

    def test_refit_of_the_continuous_columns(self, monkeypatch):
        real = optimize.milp
        calls = []

        def off_integral_then_real(**kwargs):
            calls.append(kwargs["integrality"].any())
            if len(calls) == 1:
                # x + y = 4.5 holds; snapping x to 3 pushes the row 1e-4 past its bound
                return SimpleNamespace(status=0, x=np.array([2.9999, 1.5001]), message="", mip_gap=0.0)
            return real(**kwargs)

        monkeypatch.setattr(optimize, "milp", off_integral_then_real)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve(small_milp(), cache=False, feasibility_jump=False)
        assert calls == [True, False]  # the MILP, then the LP refit
        assert solution.x.tolist() == pytest.approx([3.0, 1.5])

    def test_an_option_highs_does_not_know_still_warns(self):
        problem = dict(
            c=[-1.0], integrality=[1], bounds=optimize.Bounds([0.0], [3.0]),
            options={"mip_heuristic_no_such_option": False},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with solver._verbatim_options(), pytest.raises(optimize.OptimizeWarning):
                optimize.milp(**problem)


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
        form = standard_form([1.0], A_ub=[[1.0]], b_ub=[1.0], A_eq=[[1.0]], b_eq=[5.0])
        solve(form, cache=cache)
        again = solve(form, cache=cache)
        assert again.status == INFEASIBLE and again.info["cache"] == "hit"

    def test_fingerprint_stamped_on_cached_solves_only(self):
        cached = solve(small_milp(), cache=SolutionCache(maxsize=4))
        uncached = solve(small_milp(), cache=False)
        assert len(cached.info["fingerprint"]) == 16
        assert "fingerprint" not in uncached.info
