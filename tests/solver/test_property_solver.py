"""Property-based tests for the solver substrate (hypothesis)."""


import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import OPTIMAL, solve
from tests.conftest import standard_form


class TestKnapsackProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6),
        capacity=st.integers(min_value=1, max_value=20),
    )
    def test_knapsack_matches_enumeration(self, weights, capacity):
        """HiGHS finds the knapsack value that enumerating every 0/1 choice finds."""
        values = [w + 1 for w in weights]  # correlated values keep it non-trivial
        n = len(weights)
        form = standard_form(
            values, A_ub=[weights], b_ub=[capacity], ub=np.ones(n), integer=np.ones(n), maximize=True
        )

        best = max(
            sum(v for v, take in zip(values, choice) if take)
            for choice in itertools.product((0, 1), repeat=len(weights))
            if sum(w for w, take in zip(weights, choice) if take) <= capacity
        )
        solution = solve(form, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(best, abs=1e-6)
        assert np.isin(solution.x, (0.0, 1.0)).all()
        assert np.dot(weights, solution.x) <= capacity + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        demand=st.floats(min_value=1.0, max_value=200.0),
        throughputs=st.lists(st.floats(min_value=5.0, max_value=100.0), min_size=1, max_size=4),
    )
    def test_covering_solution_covers_demand(self, demand, throughputs):
        """Replica-covering MILPs (the shape of Loki's constraint 2) produce feasible covers."""
        n = len(throughputs)
        form = standard_form(
            np.ones(n), A_ub=[[-q for q in throughputs]], b_ub=[-demand], ub=np.full(n, 50), integer=np.ones(n)
        )
        solution = solve(form, cache=False)
        if solution.status == OPTIMAL:
            provided = sum(x * q for x, q in zip(solution.x, throughputs))
            assert provided >= demand - 1e-6
