"""Tests for :func:`repro.solver.solve` (HiGHS) on small hand-solved problems."""


import numpy as np
import pytest

from repro.solver import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    solve,
)
from tests.conftest import standard_form


def knapsack_model():
    """max 10a + 6b + 4c subject to a+b+c<=2, 5a+4b+3c<=8, binary vars; optimum 14 (a=c=1)."""
    return standard_form(
        [10, 6, 4], A_ub=[[1, 1, 1], [5, 4, 3]], b_ub=[2, 8], ub=[1, 1, 1], integer=[1, 1, 1], maximize=True
    )


def covering_model():
    """min x + y subject to 3x + 2y >= 12, x,y integer >= 0; optimum 4 (x=4, y=0)."""
    return standard_form([1, 1], A_ub=[[-3, -2]], b_ub=[-12], integer=[1, 1])


def lp_model():
    """Pure LP: max x + 2y s.t. x + y <= 4, x <= 3; optimum 8 at (0, 4)."""
    return standard_form([1, 2], A_ub=[[1, 1], [1, 0]], b_ub=[4, 3], maximize=True)


def infeasible_model():
    """x integer in [0, 10] with x >= 5 and x <= 3."""
    return standard_form([1], A_ub=[[-1], [1]], b_ub=[-5, 3], ub=[10], integer=[1])


class TestHandSolvedOptima:
    def test_knapsack_optimum(self):
        solution = solve(knapsack_model(), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(14.0, abs=1e-6)
        assert solution.x[0] == pytest.approx(1.0)
        assert solution.x[2] == pytest.approx(1.0)

    def test_covering_optimum(self):
        solution = solve(covering_model(), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_lp_optimum(self):
        solution = solve(lp_model(), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(8.0, abs=1e-6)

    def test_infeasible_detected(self):
        solution = solve(infeasible_model(), cache=False)
        assert solution.status == INFEASIBLE

    def test_solution_is_feasible_point(self):
        form = knapsack_model()
        x = solve(form, cache=False).x
        assert np.all(form.A_ub @ x <= form.b_ub + 1e-6)
        assert np.all((form.lb <= x) & (x <= form.ub))
        assert np.array_equal(x, np.round(x))

    def test_mixed_integer_continuous(self):
        form = standard_form([2, 1], A_ub=[[1, 1]], b_ub=[7.5], ub=[10, 10], integer=[1, 0], maximize=True)
        solution = solve(form, cache=False)
        assert solution.status == OPTIMAL
        assert solution.x[0] == pytest.approx(7.0)
        assert solution.x[1] == pytest.approx(0.5, abs=1e-6)


class TestHighsDecoding:
    def test_empty_model(self):
        solution = solve(standard_form([]), cache=False)
        assert solution.status == OPTIMAL

    def test_unbounded_detection(self):
        solution = solve(standard_form([1], maximize=True), cache=False)
        assert solution.status in (UNBOUNDED, INFEASIBLE)

    def test_integer_values_are_snapped(self):
        x = solve(covering_model(), cache=False).x
        assert x[0] == int(x[0])
        assert x[1] == int(x[1])

    def test_optimality_reported(self):
        solution = solve(knapsack_model(), cache=False)
        assert solution.info["optimal_proven"] is True

    @pytest.mark.parametrize("model", [knapsack_model, lp_model, infeasible_model])
    def test_diagnostics_are_a_function_of_the_form(self, model):
        """Two solves of one form report the same ``info``: nothing in it reads the host clock."""
        form = model()
        assert solve(form, cache=False).info == solve(form, cache=False).info

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            solve(knapsack_model(), cache=False, relative_gap=1e-3)
