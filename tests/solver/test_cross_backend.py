"""Property-based checks of :func:`repro.solver.solve` against oracles in the tests (hypothesis).

Random *feasible-by-construction* MILPs are drawn as raw arrays and solved as
a :class:`~repro.solver.StandardForm`.  The oracles read only those arrays, so
they check how HiGHS results are decoded (status mapping, objective sign,
integer snapping):

* pure-integer instances are small enough (at most 5 variables with upper
  bounds of at most 5, so at most 6**5 grid points) to enumerate exhaustively;
* mixed-integer instances must return a feasible point whose objective is no
  worse than that of the construction point ``x0``; three pinned examples are
  instances whose rounded integer columns once left a row 1e-6 infeasible.
"""

import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.solver import OPTIMAL, solve
from tests.conftest import standard_form


class Instance(NamedTuple):
    """``max``/``min c @ x`` s.t. ``A @ x <= b``, ``0 <= x <= ub``; ``x0`` is feasible."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    maximize: bool
    x0: np.ndarray


def _tol(reference: float) -> float:
    # HiGHS stops at its default 1e-6 relative MIP gap.
    return max(1e-6, 2e-6 * abs(reference))


def random_feasible_milp(seed: int, num_vars: int, num_cons: int, with_continuous: bool):
    """A random covering/packing MILP that is feasible by construction.

    An integer point ``x0`` is drawn first and every constraint's rhs is set
    so ``x0`` satisfies it, guaranteeing feasibility regardless of the drawn
    coefficients.  Returns the form and the :class:`Instance` it was built from.
    """
    rng = np.random.default_rng(seed)
    ub = rng.integers(1, 6, size=num_vars).astype(float)
    integer = np.array([True if not with_continuous else bool(rng.random() < 0.7) for _ in range(num_vars)])
    x0 = np.array([rng.integers(0, u + 1) for u in ub.astype(int)], dtype=float)
    A = rng.uniform(-2.0, 3.0, size=(num_cons, num_vars))
    b = A @ x0 + rng.uniform(0.0, 2.0, size=num_cons)
    c = rng.uniform(0.2, 3.0, size=num_vars)
    instance = Instance(A, b, c, ub, integer, bool(rng.random() < 0.5), x0)

    form = standard_form(c, A_ub=A, b_ub=b, ub=ub, integer=integer, maximize=instance.maximize)
    return form, instance


def enumerated_optimum(instance: Instance) -> float:
    """Best objective over every integer point of the box (pure-integer instances)."""
    grid = np.array(list(itertools.product(*(range(int(u) + 1) for u in instance.ub))), dtype=float)
    feasible = grid[(grid @ instance.A.T <= instance.b + 1e-9).all(axis=1)]
    values = feasible @ instance.c
    return float(values.max() if instance.maximize else values.min())


def assert_decoded_consistently(solution, instance: Instance) -> None:
    """The reported point satisfies the raw instance and carries its objective."""
    x = solution.x
    assert np.all(x >= -1e-9) and np.all(x <= instance.ub + 1e-9)
    assert np.all(x[instance.integer] == np.round(x[instance.integer]))  # snapped exactly
    assert np.all(instance.A @ x <= instance.b + 1e-6)
    assert solution.objective == pytest.approx(float(instance.c @ x), abs=1e-9, rel=1e-9)


class TestPureIntegerMatchesEnumeration:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_vars=st.integers(min_value=2, max_value=5),
        num_cons=st.integers(min_value=1, max_value=6),
    )
    def test_objective_equals_enumerated_optimum(self, seed, num_vars, num_cons):
        form, instance = random_feasible_milp(seed, num_vars, num_cons, with_continuous=False)
        solution = solve(form, cache=False)
        assert solution.status == OPTIMAL  # feasible by construction
        assert_decoded_consistently(solution, instance)
        expected = enumerated_optimum(instance)
        assert solution.objective == pytest.approx(expected, abs=_tol(expected))


class TestMixedIntegerBeatsConstructionPoint:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_vars=st.integers(min_value=2, max_value=8),
        num_cons=st.integers(min_value=1, max_value=6),
    )
    # Rounding HiGHS's near-integral columns pushed a row of each of these
    # 1.5e-6 to 2.1e-6 past its bound (see ``SNAP_TOLERANCE`` in repro.solver).
    @example(seed=114, num_vars=5, num_cons=2)
    @example(seed=89, num_vars=6, num_cons=2)
    @example(seed=172, num_vars=7, num_cons=3)
    def test_feasible_and_no_worse_than_x0(self, seed, num_vars, num_cons):
        form, instance = random_feasible_milp(seed, num_vars, num_cons, with_continuous=True)
        solution = solve(form, cache=False)
        assert solution.status == OPTIMAL
        assert_decoded_consistently(solution, instance)
        at_x0 = float(instance.c @ instance.x0)
        if instance.maximize:
            assert solution.objective >= at_x0 - _tol(at_x0)
        else:
            assert solution.objective <= at_x0 + _tol(at_x0)


class TestLokiShapedCovering:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_covering_uses_fewest_replicas(self, seed):
        """Loki-shaped covering MILPs: the optimum is ``ceil(demand / best throughput)`` replicas."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        throughputs = rng.uniform(5.0, 60.0, size=n)
        demand = float(rng.uniform(10.0, 150.0))
        form = standard_form(np.ones(n), A_ub=[-throughputs], b_ub=[-demand], ub=np.full(n, 50), integer=np.ones(n))
        solution = solve(form, cache=False)
        assert solution.status == OPTIMAL
        assert float(np.dot(solution.x, throughputs)) >= demand - 1e-6
        assert solution.objective == pytest.approx(float(np.ceil(demand / throughputs.max())))
