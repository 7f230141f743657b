"""Property-based tests for the solver substrate (hypothesis)."""


import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import Model, OPTIMAL, solve


coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.1, max_value=5.0, allow_nan=False, allow_infinity=False)


class TestLinExprProperties:
    @given(a=coeff, b=coeff, x=coeff, y=coeff)
    def test_expression_evaluation_is_linear(self, a, b, x, y):
        m = Model()
        vx, vy = m.add_var("x", lb=-10, ub=10), m.add_var("y", lb=-10, ub=10)
        expr = a * vx + b * vy
        assert expr.value([x, y]) == pytest.approx(a * x + b * y, abs=1e-9, rel=1e-9)

    @given(values=st.lists(coeff, min_size=1, max_size=6))
    def test_sum_of_variables_equals_sum_of_values(self, values):
        m = Model()
        variables = [m.add_var(f"v{i}", lb=-10, ub=10) for i in range(len(values))]
        expr = variables[0] * 1.0
        for var in variables[1:]:
            expr = expr + var
        assert expr.value(values) == pytest.approx(sum(values), abs=1e-9)

    @given(a=coeff, scale=coeff)
    def test_scaling_distributes_over_constant(self, a, scale):
        m = Model()
        x = m.add_var("x", lb=-10, ub=10)
        expr = (a * x + 3.0) * scale
        assert expr.constant == pytest.approx(3.0 * scale)


class TestKnapsackProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6),
        capacity=st.integers(min_value=1, max_value=20),
    )
    def test_knapsack_matches_enumeration(self, weights, capacity):
        """HiGHS finds the knapsack value that enumerating every 0/1 choice finds."""
        values = [w + 1 for w in weights]  # correlated values keep it non-trivial
        m = Model("hyp-knapsack")
        xs = [m.add_var(f"x{i}", ub=1, integer=True) for i in range(len(weights))]
        weight_expr = xs[0] * weights[0]
        value_expr = xs[0] * values[0]
        for x, w, v in zip(xs[1:], weights[1:], values[1:]):
            weight_expr = weight_expr + x * w
            value_expr = value_expr + x * v
        m.add_constraint(weight_expr <= capacity)
        m.maximize(value_expr)

        best = max(
            sum(v for v, take in zip(values, choice) if take)
            for choice in itertools.product((0, 1), repeat=len(weights))
            if sum(w for w, take in zip(weights, choice) if take) <= capacity
        )
        solution = solve(m, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(best, abs=1e-6)
        assert m.is_feasible_point(solution.x)

    @settings(max_examples=25, deadline=None)
    @given(
        demand=st.floats(min_value=1.0, max_value=200.0),
        throughputs=st.lists(st.floats(min_value=5.0, max_value=100.0), min_size=1, max_size=4),
    )
    def test_covering_solution_covers_demand(self, demand, throughputs):
        """Replica-covering MILPs (the shape of Loki's constraint 2) produce feasible covers."""
        m = Model("cover")
        xs = [m.add_var(f"x{i}", integer=True, ub=50) for i in range(len(throughputs))]
        served = xs[0] * throughputs[0]
        total = xs[0] * 1.0
        for x, q in zip(xs[1:], throughputs[1:]):
            served = served + x * q
            total = total + x
        m.add_constraint(served >= demand)
        m.minimize(total)
        solution = solve(m, cache=False)
        if solution.status == OPTIMAL:
            provided = sum(solution[f"x{i}"] * q for i, q in enumerate(throughputs))
            assert provided >= demand - 1e-6

