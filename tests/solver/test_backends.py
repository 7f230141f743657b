"""Tests for :func:`repro.solver.solve` (HiGHS) on small hand-solved problems."""


import pytest

from repro.solver import (
    INFEASIBLE,
    Model,
    OPTIMAL,
    UNBOUNDED,
    solve,
)


def knapsack_model():
    """max 10a + 6b + 4c subject to a+b+c<=2, 5a+4b+3c<=8, binary vars; optimum 14 (a=c=1)."""
    m = Model("knapsack")
    a = m.add_var("a", ub=1, integer=True)
    b = m.add_var("b", ub=1, integer=True)
    c = m.add_var("c", ub=1, integer=True)
    m.add_constraint(a + b + c <= 2)
    m.add_constraint(5 * a + 4 * b + 3 * c <= 8)
    m.maximize(10 * a + 6 * b + 4 * c)
    return m


def covering_model():
    """min x + y subject to 3x + 2y >= 12, x,y integer >= 0; optimum 4 (x=4, y=0)."""
    m = Model("covering")
    x = m.add_var("x", integer=True)
    y = m.add_var("y", integer=True)
    m.add_constraint(3 * x + 2 * y >= 12)
    m.minimize(x + y)
    return m


def lp_model():
    """Pure LP: max x + 2y s.t. x + y <= 4, x <= 3; optimum 8 at (0, 4)."""
    m = Model("lp")
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constraint(x + y <= 4)
    m.add_constraint(x * 1.0 <= 3)
    m.maximize(x + 2 * y)
    return m


def infeasible_model():
    m = Model("infeasible")
    x = m.add_var("x", lb=0, ub=10, integer=True)
    m.add_constraint(x * 1.0 >= 5)
    m.add_constraint(x * 1.0 <= 3)
    m.minimize(x * 1.0)
    return m



class TestHandSolvedOptima:
    def test_knapsack_optimum(self):
        solution = solve(knapsack_model(), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(14.0, abs=1e-6)
        assert solution["a"] == pytest.approx(1.0)
        assert solution["c"] == pytest.approx(1.0)

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
        model = knapsack_model()
        solution = solve(model, cache=False)
        assert model.is_feasible_point(solution.x)

    def test_mixed_integer_continuous(self):
        m = Model("mixed")
        x = m.add_var("x", integer=True, ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + y <= 7.5)
        m.maximize(2 * x + y)
        solution = solve(m, cache=False)
        assert solution.status == OPTIMAL
        assert solution["x"] == pytest.approx(7.0)
        assert solution["y"] == pytest.approx(0.5, abs=1e-6)


class TestHighsDecoding:
    def test_empty_model(self):
        solution = solve(Model("empty"), cache=False)
        assert solution.status == OPTIMAL

    def test_unbounded_detection(self):
        m = Model("unbounded")
        x = m.add_var("x")
        m.maximize(x * 1.0)
        solution = solve(m, cache=False)
        assert solution.status in (UNBOUNDED, INFEASIBLE)

    def test_integer_values_are_snapped(self):
        solution = solve(covering_model(), cache=False)
        assert solution["x"] == int(solution["x"])
        assert solution["y"] == int(solution["y"])

    def test_runtime_reported(self):
        solution = solve(knapsack_model(), cache=False)
        assert solution.info["runtime_s"] >= 0
        assert solution.info["optimal_proven"] is True

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            solve(knapsack_model(), cache=False, relative_gap=1e-3)
