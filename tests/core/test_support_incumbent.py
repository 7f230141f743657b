"""The restricted MILPs give accuracy scaling its plans; the full MILP is the fallback.

``AllocationProblem.solve_accuracy_scaling`` solves two LP relaxations, then
the MILP restricted to their support, then (when that misses the gap and
recent plans' configurations widen the support) the recent MILP, and the full
MILP only when neither restricted MILP returned a plan (see "Support
incumbent" in :mod:`repro.core.allocation`).  A plan outside the gap is the
best restricted plan, not a certified one, so its quality is pinned against
the full MILP here.  ``solve_hardware_scaling`` checks its LP relaxation
before its MILP.

On a demand grid of 1.1x-3.0x the hardware-scaling capacity of both paper
pipelines, walked upwards the way the Resource Manager passes its last three
plans, with and without the stability bonus, at the default gap and at the
1% gap, every plan must be valid for the full model, the full MILP must run
exactly when no restricted MILP found a plan, the recorded ``lp_bound_gap``
must match an LP bound computed here, and no plan may lie more than
:data:`MAX_LOSS` below the full MILP's objective.  Tier-1 walks the coarse
grid (32 points); ``-m slow`` walks the fine one (20 steps of 0.1, 160
points).
"""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import repro.core.allocation as allocation
from repro.core import AllocationProblem, validate_plan
from repro.core.allocation import ACCURACY_SCALING, STABILITY_BONUS
from repro.solver import DEFAULT_SOLVER_OPTIONS, solve
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

#: pipeline -> (factory, incumbent variants for the stability bonus)
PIPELINES = {
    "traffic": (traffic_analysis_pipeline, ("efficientnet_b5", "vgg19", "yolov5m6")),
    "social": (social_media_pipeline, ("clip_vit_l14", "clip_vit_l14_336", "wide_resnet50")),
}

#: demands, as multiples of the hardware-scaling capacity
GRIDS = {
    "coarse": (1.1, 1.7, 2.4, 3.0),
    "fine": tuple(round(1.1 + 0.1 * step, 1) for step in range(20)),
}

GAPS = (DEFAULT_SOLVER_OPTIONS["mip_rel_gap"], 1e-2)

#: how far below the full MILP's objective a returned plan may lie, relative
#: to that objective (the fine grid's worst is 0.61%)
MAX_LOSS = 1e-2


def make_problem(name, gap):
    factory, _ = PIPELINES[name]
    options = {**DEFAULT_SOLVER_OPTIONS, "mip_rel_gap": gap}
    return AllocationProblem(
        factory(), num_workers=20, utilization_target=0.75, solver_options=options
    )


def full_form(problem, demand, preferred):
    form, _, _ = problem._build_model(
        demand, ACCURACY_SCALING, restrict_to_best=False, preferred_variants=preferred
    )
    return form


def lp_bound(problem, demand, preferred):
    """Optimum of the accuracy-scaling LP relaxation, in the objective's (maximisation) sense."""
    form = full_form(problem, demand, preferred)
    relaxation = solve(replace(form, integrality=np.zeros_like(form.integrality)), cache=False)
    assert relaxation.is_optimal
    return relaxation.objective


def objective(problem, plan, preferred):
    """The MILP objective of ``plan``: accuracy plus the stability bonus of its preferred replicas."""
    preferred_replicas = sum(a.replicas for a in plan.allocations if a.variant_name in (preferred or ()))
    return plan.expected_accuracy + STABILITY_BONUS / problem.num_workers * preferred_replicas


def kind(form):
    """``"lp"``, ``"restricted"`` (some ``ub`` zeroed) or ``"full"``: the full form zeroes no ``ub``."""
    if not form.integrality.any():
        return "lp"
    return "restricted" if (form.ub == 0).any() else "full"


def spy_on_solve(calls):
    """A stand-in for ``allocation.solve`` appending ``(kind, solution)`` to ``calls``."""

    def spy(form, **options):
        solution = solve(form, **options)
        calls.append((kind(form), solution))
        return solution

    return spy


@pytest.fixture(
    scope="module",
    params=[
        pytest.param((name, gap, points), marks=[pytest.mark.slow] if points == "fine" else [])
        for points in GRIDS
        for name in sorted(PIPELINES)
        for gap in GAPS
    ],
    ids=str,
)
def grid(request):
    """``(problem, gap, rows)`` with one ``(demand, preferred, plan, calls)`` row per grid point.

    ``calls`` holds ``(kind, solution)`` of every ``solve`` call the point's
    accuracy scaling made.  Each walk up the grid passes accuracy scaling the
    configurations of its last three plans, as ``ResourceManager`` does.
    """
    name, gap, points = request.param
    problem = make_problem(name, gap)
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        for preferred in (None, PIPELINES[name][1]):
            recent = deque(maxlen=3)
            for multiple in GRIDS[points]:
                demand = multiple * capacity
                calls = []
                patch.setattr(allocation, "solve", spy_on_solve(calls))
                plan = problem.solve_accuracy_scaling(
                    demand, preferred_variants=preferred, recent_configs=frozenset().union(*recent)
                )
                rows.append((demand, preferred, plan, calls))
                recent.append({(a.task, a.variant_name, a.batch_size) for a in plan.allocations})
    return problem, gap, rows


def test_every_plan_is_valid_for_the_full_model(grid):
    problem, _, rows = grid
    for demand, _, plan, _ in rows:
        assert plan is not None and plan.feasible and plan.mode == ACCURACY_SCALING, demand
        assert plan.solver_info["incumbent"] in allocation.INCUMBENTS
        validate_plan(problem, plan)


def test_the_full_milp_runs_only_when_no_restricted_milp_finds_a_plan(grid):
    problem, gap, rows = grid
    for demand, preferred, plan, calls in rows:
        milps = [(name, solution) for name, solution in calls if name != "lp"]
        restricted = [solution for name, solution in milps if name == "restricted"]
        found = [solution for solution in restricted if solution.is_optimal]
        assert 1 <= len(restricted) <= 2, demand
        assert [name for name, _ in milps] == ["restricted"] * len(restricted) + ["full"] * (not found), demand
        if found:
            assert plan.solver_info["incumbent"] != "milp"
            best = max(solution.objective for solution in found)
            assert objective(problem, plan, preferred) == pytest.approx(best, abs=1e-9), demand
        else:
            assert plan.solver_info["incumbent"] == "milp"
        # A support plan within the gap of the plain LP (the first solve) ends
        # the search before the recent MILP.
        bound = calls[0][1].objective
        if restricted[0].is_optimal and bound - restricted[0].objective <= gap * restricted[0].objective:
            assert len(restricted) == 1, demand


def test_lp_bound_gap_is_recorded(grid):
    problem, _, rows = grid
    for demand, preferred, plan, _ in rows:
        value = objective(problem, plan, preferred)
        bound = lp_bound(problem, demand, preferred)
        assert plan.solver_info["lp_bound_gap"] == pytest.approx((bound - value) / abs(value), abs=1e-6), demand


def test_no_plan_is_far_below_the_full_milp(grid):
    problem, _, rows = grid
    for demand, preferred, plan, _ in rows:
        full = problem._solve(full_form(problem, demand, preferred))
        assert full.is_optimal
        value = objective(problem, plan, preferred)
        assert value >= full.objective - MAX_LOSS * abs(full.objective), demand


def test_the_recent_milp_keeps_paths_mixing_support_and_recent_configurations():
    problem = make_problem("traffic", DEFAULT_SOLVER_OPTIONS["mip_rel_gap"])
    configs = problem.configurations()
    paths = problem.config_paths(maximal_only=True)
    num_x = len(configs)
    column = {config.key: j for j, config in enumerate(configs)}
    # The support holds the first path's configurations but its last; recent plans hold that last one.
    *held, new = paths[0].configs
    support = np.zeros(num_x + len(paths), dtype=bool)
    support[[column[config.key] for config in held]] = True
    widened = problem._recent_support(support, configs, paths, {new.key})
    assert widened[num_x], "the path made of support and recent configurations joins"
    kept = {config.key for config in paths[0].configs}
    assert widened[:num_x].tolist() == [config.key in kept for config in configs]
    assert widened[num_x:].tolist() == [all(config.key in kept for config in path.configs) for path in paths]
    assert problem._recent_support(support, configs, paths, {config.key for config in held}) is None


def test_the_full_milp_is_the_fallback_when_both_restricted_milps_fail(monkeypatch):
    problem = make_problem("traffic", DEFAULT_SOLVER_OPTIONS["mip_rel_gap"])
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    earlier = problem.solve_accuracy_scaling(1.1 * capacity)
    recent = {(a.task, a.variant_name, a.batch_size) for a in earlier.allocations}
    calls = []
    spy = spy_on_solve(calls)

    def infeasible_restricted(form, **options):
        if kind(form) == "restricted":
            form = replace(form, ub=np.zeros_like(form.ub))  # no flow meets the demand rows
        return spy(form, **options)

    monkeypatch.setattr(allocation, "solve", infeasible_restricted)
    demand = 2.4 * capacity
    plan = problem.solve_accuracy_scaling(demand, recent_configs=recent)
    assert [(name, solution.is_optimal) for name, solution in calls if name != "lp"] == [
        ("restricted", False), ("restricted", False), ("full", True)
    ]
    assert plan.solver_info["incumbent"] == "milp"
    assert plan.expected_accuracy == pytest.approx(calls[-1][1].objective, abs=1e-9)
    bound = lp_bound(problem, demand, None)
    assert plan.solver_info["lp_bound_gap"] == pytest.approx((bound - plan.expected_accuracy) / plan.expected_accuracy)
    validate_plan(problem, plan)


def test_an_infeasible_relaxation_ends_the_solve(monkeypatch):
    problem = make_problem("traffic", DEFAULT_SOLVER_OPTIONS["mip_rel_gap"])
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    forms = []
    real = allocation.solve

    def spy(form, **options):
        forms.append(form)
        return real(form, **options)

    monkeypatch.setattr(allocation, "solve", spy)
    assert problem.solve_accuracy_scaling(20.0 * capacity) is None
    assert len(forms) == 1
    assert not forms[0].integrality.any()


def test_an_infeasible_hardware_relaxation_triggers_no_milp(monkeypatch):
    problem = make_problem("traffic", DEFAULT_SOLVER_OPTIONS["mip_rel_gap"])
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    forms = []
    real = allocation.solve

    def spy(form, **options):
        forms.append(form)
        return real(form, **options)

    monkeypatch.setattr(allocation, "solve", spy)
    assert problem.solve_hardware_scaling(1.5 * capacity) is None
    assert len(forms) == 1
    assert not forms[0].integrality.any()
    assert problem.hardware_lp_infeasible == 1
    # Below capacity the relaxation is feasible and the same MILP as before follows.
    plan = problem.solve_hardware_scaling(0.5 * capacity)
    assert plan is not None and plan.feasible
    assert [form.integrality.any() for form in forms[1:]] == [False, True]
    assert problem.hardware_lp_infeasible == 1
