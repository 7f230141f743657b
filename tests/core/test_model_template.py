"""One long-lived ``AllocationProblem`` builds what a fresh one builds, and its capacity check is exact.

An :class:`~repro.core.allocation.AllocationProblem` keeps the part of its
models that the factor estimates and the demand do not move, and the LP
capacity of its best-variant model (see "Array form" and "Hardware capacity
check" in :mod:`repro.core.allocation`).  The control planes keep one problem
and reassign its ``multiplicative_factors`` before every solve, so here one
problem per pipeline walks a drifting sequence of factor vectors, up and
down, and at each vector:

* every entry point hands ``solve`` the same forms, byte for byte, as a fresh
  problem at those factors does, and ``config_paths`` returns the same paths;
* every hardware-scaling call the capacity check ends has an infeasible
  hardware LP relaxation, and every call that goes on to the MILP a feasible
  one (the LP is solved here).
"""

import numpy as np
import pytest

import repro.core.allocation as allocation
from repro.core import AllocationProblem
from repro.solver import INFEASIBLE, Solution, solve
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

#: pipeline -> (factory, demands below and ~2.5x above its 20-worker hardware
#: capacity, incumbent variants for the stability bonus)
PIPELINES = {
    "traffic": (traffic_analysis_pipeline, (120.0, 742.0), ("efficientnet_b5", "vgg19", "yolov5m6")),
    "social": (social_media_pipeline, (90.0, 553.0), ("clip_vit_l14", "clip_vit_l14_336", "wide_resnet50")),
}

#: factor vectors each long-lived problem walks
NUM_VECTORS = 20


def drifted_factors(pipeline, num_vectors, seed=0):
    """``num_vectors`` factor vectors, each variant's a random walk of its profiled factor, up and down."""
    rng = np.random.default_rng(seed)
    variants = [variant for task in pipeline.tasks for variant in pipeline.registry.variants(task)]
    current = {variant.name: variant.multiplicative_factor for variant in variants}
    vectors = []
    for _ in range(num_vectors):
        current = {name: factor * float(rng.uniform(0.8, 1.25)) for name, factor in current.items()}
        vectors.append(dict(current))
    return vectors


def form_bytes(form):
    """Every array of ``form``, the constraint matrices in their CSR arrays, as bytes."""
    parts = [repr(form.sense).encode()]
    for name in ("c", "b_ub", "b_eq", "lb", "ub", "integrality"):
        parts.append(np.ascontiguousarray(getattr(form, name)).tobytes())
    for matrix in (form.A_ub, form.A_eq):
        parts += [repr(matrix.shape).encode(), matrix.data.tobytes(), matrix.indices.tobytes(), matrix.indptr.tobytes()]
    return tuple(parts)


@pytest.fixture
def captured(monkeypatch):
    """Forms handed to ``solve``: LPs solved for real, every MILP reported infeasible, so each stage builds."""
    forms = []

    def capture(form, **options):
        forms.append(form)
        if form.integrality.any():
            return Solution(status=INFEASIBLE)
        return solve(form, **options)

    monkeypatch.setattr(allocation, "solve", capture)
    return forms


def entry_points(demands, preferred):
    """Name -> call of every solve entry point, at each of ``demands``."""
    calls = {}
    for d in demands:
        calls[f"hardware-{d:g}"] = lambda p, d=d: p.solve_hardware_scaling(d)
        calls[f"accuracy-{d:g}"] = lambda p, d=d: p.solve_accuracy_scaling(d)
        calls[f"accuracy-preferred-{d:g}"] = lambda p, d=d: p.solve_accuracy_scaling(d, preferred_variants=preferred)
        calls[f"accuracy-floor-{d:g}"] = lambda p, d=d: p.solve_accuracy_scaling(d, accuracy_floor=0.9)
    calls["max-demand"] = lambda p: p.max_supported_demand()
    calls["max-demand-best"] = lambda p: p.max_supported_demand(restrict_to_best=True)
    calls["max-demand-floor"] = lambda p: p.max_supported_demand(accuracy_floor=0.9)
    return calls


@pytest.mark.parametrize("name", list(PIPELINES))
def test_a_long_lived_problem_builds_what_a_fresh_one_builds(name, captured):
    factory, demands, preferred = PIPELINES[name]
    pipeline = factory()
    problem = AllocationProblem(pipeline, num_workers=20)
    calls = entry_points(demands, preferred)
    for factors in drifted_factors(pipeline, NUM_VECTORS):
        problem.multiplicative_factors = factors
        fresh = AllocationProblem(pipeline, num_workers=20, multiplicative_factors=factors)
        for restrict_to_best in (False, True):
            for maximal_only in (False, True):
                assert problem.config_paths(restrict_to_best, maximal_only) == fresh.config_paths(
                    restrict_to_best, maximal_only
                )
        for call_name, call in calls.items():
            del captured[:]
            kept = call(problem)
            kept_forms = [form_bytes(form) for form in captured]
            del captured[:]
            assert call(fresh) == kept, call_name
            fresh_forms = [form_bytes(form) for form in captured]
            if call_name.startswith("hardware"):
                # A fresh problem has no capacity yet, so it solves the capacity
                # LP that the kept capacity may spare the long-lived one.
                assert kept_forms in (fresh_forms, fresh_forms[1:]), call_name
            else:
                assert kept_forms == fresh_forms, call_name


def hardware_lp_is_feasible(problem, demand):
    """The hardware-scaling MILP's LP relaxation at ``demand``, solved (past the ``solve`` spies)."""
    form, _, _ = problem._build_model(demand_qps=demand, mode=allocation.HARDWARE_SCALING, restrict_to_best=True)
    return solve(allocation._relaxed(form), cache=False).is_optimal


@pytest.mark.parametrize("name", list(PIPELINES))
def test_the_capacity_check_ends_exactly_the_calls_with_an_infeasible_hardware_lp(name, monkeypatch):
    factory, _, _ = PIPELINES[name]
    pipeline = factory()
    problem = AllocationProblem(pipeline, num_workers=20)
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    solved = []
    real = allocation.solve

    def spy(form, **options):
        solved.append(form)
        return real(form, **options)

    monkeypatch.setattr(allocation, "solve", spy)
    ended_by = {"bound": 0, "lp": 0, "milp": 0}
    grid = (0.5, 0.9, 1.1, 1.5, 2.5)
    for step, factors in enumerate(drifted_factors(pipeline, NUM_VECTORS, seed=1)):
        problem.multiplicative_factors = factors
        # Walked down at every other vector, so that a first call above the
        # capacity meets factors the bound cannot decide at.
        for multiple in grid[:: 1 if step % 2 else -1]:
            demand = multiple * capacity
            ended_before = problem.hardware_lp_infeasible
            del solved[:]
            problem.solve_hardware_scaling(demand)
            ended = problem.hardware_lp_infeasible - ended_before
            milps = [form for form in solved if form.integrality.any()]
            # No call solves more than the LP and the MILP of an LP check alone.
            assert len(solved) - len(milps) <= 1 and len(milps) <= 1
            assert ended == (not milps)
            assert hardware_lp_is_feasible(problem, demand) == (not ended), (factors, multiple)
            ended_by["milp" if milps else "lp" if solved else "bound"] += 1
    # Both ways of ending a call and the MILP are all exercised.
    assert all(ended_by.values()), ended_by


@pytest.mark.parametrize("name", list(PIPELINES))
def test_a_call_at_the_kept_capacitys_factors_solves_no_capacity_lp(name, monkeypatch):
    """At exactly the factors of the kept ``D*``, that ``D*`` is the LP capacity: no call solves the LP again."""
    factory, _, _ = PIPELINES[name]
    pipeline = factory()
    problem = AllocationProblem(pipeline, num_workers=20)
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    solved = []
    real = allocation.solve

    def spy(form, **options):
        solved.append(form)
        return real(form, **options)

    monkeypatch.setattr(allocation, "solve", spy)
    for factors in drifted_factors(pipeline, 4, seed=2):
        problem.multiplicative_factors = factors
        del solved[:]
        problem.solve_hardware_scaling(1.0)
        # New factors and a demand no bound rules out: one capacity LP.
        assert sum(not form.integrality.any() for form in solved) == 1
        for multiple in (0.5, 0.9, 1.1, 1.5, 2.5):
            demand = multiple * capacity
            ended_before = problem.hardware_lp_infeasible
            del solved[:]
            problem.solve_hardware_scaling(demand)
            assert all(form.integrality.any() for form in solved), (factors, multiple)
            ended = problem.hardware_lp_infeasible - ended_before
            assert hardware_lp_is_feasible(problem, demand) == (not ended), (factors, multiple)
