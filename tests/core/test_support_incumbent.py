"""The support and recent incumbents keep the guarantee HiGHS gives.

``AllocationProblem.solve_accuracy_scaling`` solves two LP relaxations, then
the MILP restricted to their support, then (given recent plans' configurations)
the recent MILP, and only then the full MILP (see "Support incumbent" in
:mod:`repro.core.allocation`).  ``solve_hardware_scaling`` checks its LP
relaxation before its MILP.  On a demand grid of 1.1x-3.0x the
hardware-scaling capacity of both paper pipelines, walked upwards the way the
Resource Manager passes its last three plans, with and without the stability
bonus, at the default gap and at the 1% gap, every plan must be valid for the
full model, and a plan taken from the support or the recent MILP must lie
within ``mip_rel_gap`` of an LP bound computed here, or be no worse than the
node-limited full MILP that followed it.
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
GRID = (1.1, 1.7, 2.4, 3.0)

GAPS = (DEFAULT_SOLVER_OPTIONS["mip_rel_gap"], 1e-2)

#: (pipeline, gap) -> the solves that produce the grid's plans; the grid as a
#: whole reaches all three
SOURCES = {
    ("social", GAPS[0]): {"support", "milp"},
    ("social", GAPS[1]): {"support", "milp"},
    ("traffic", GAPS[0]): {"support", "recent", "milp"},
    ("traffic", GAPS[1]): {"support", "recent", "milp"},
}


def make_problem(name, gap):
    factory, _ = PIPELINES[name]
    options = {**DEFAULT_SOLVER_OPTIONS, "mip_rel_gap": gap}
    return AllocationProblem(
        factory(), num_workers=20, utilization_target=0.75, solver_options=options
    )


def lp_bound(problem, demand, preferred):
    """Optimum of the accuracy-scaling LP relaxation, in the objective's (maximisation) sense."""
    form, _, _ = problem._build_model(
        demand, ACCURACY_SCALING, restrict_to_best=False, preferred_variants=preferred
    )
    relaxation = solve(replace(form, integrality=np.zeros_like(form.integrality)), cache=False)
    assert relaxation.is_optimal
    return relaxation.objective


def objective(problem, plan, preferred):
    """The MILP objective of ``plan``: accuracy plus the stability bonus of its preferred replicas."""
    preferred_replicas = sum(a.replicas for a in plan.allocations if a.variant_name in (preferred or ()))
    return plan.expected_accuracy + STABILITY_BONUS / problem.num_workers * preferred_replicas


@pytest.fixture(
    scope="module", params=[(name, gap) for name in sorted(PIPELINES) for gap in GAPS], ids=str
)
def grid(request):
    """``(name, problem, gap, rows)`` with one ``(demand, preferred, plan)`` row per grid point.

    Each walk up the grid passes accuracy scaling the configurations of its
    last three plans, as ``ResourceManager`` does.
    """
    name, gap = request.param
    problem = make_problem(name, gap)
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    rows = []
    for preferred in (None, PIPELINES[name][1]):
        recent = deque(maxlen=3)
        for multiple in GRID:
            demand = multiple * capacity
            plan = problem.solve_accuracy_scaling(
                demand, preferred_variants=preferred, recent_configs=frozenset().union(*recent)
            )
            rows.append((demand, preferred, plan))
            recent.append({(a.task, a.variant_name, a.batch_size) for a in plan.allocations})
    return name, problem, gap, rows


def test_every_plan_is_valid_for_the_full_model(grid):
    name, problem, gap, rows = grid
    for demand, _, plan in rows:
        assert plan is not None and plan.feasible and plan.mode == ACCURACY_SCALING, demand
        validate_plan(problem, plan)
    assert {plan.solver_info["incumbent"] for _, _, plan in rows} == SOURCES[name, gap]


def test_the_grid_reaches_every_source():
    assert set().union(*SOURCES.values()) == set(allocation.INCUMBENTS)


def test_restricted_plans_are_within_the_gap_or_beat_the_full_milp(grid):
    _, problem, gap, rows = grid
    for demand, preferred, plan in rows:
        if plan.solver_info["incumbent"] == "milp":
            continue
        value = objective(problem, plan, preferred)
        bound = lp_bound(problem, demand, preferred)
        if bound - value > gap * abs(value) + 1e-9:
            form, _, _ = problem._build_model(
                demand, ACCURACY_SCALING, restrict_to_best=False, preferred_variants=preferred
            )
            assert problem._solve(form).objective <= value + 1e-9, demand
        recorded = plan.solver_info["lp_bound_gap"]
        assert recorded == pytest.approx((bound - value) / abs(value), abs=1e-6)


def test_a_worse_full_milp_does_not_replace_the_support_plan(monkeypatch):
    """The node budget can end the full MILP below the incumbent that missed the gap; the better plan wins."""
    problem = make_problem("social", DEFAULT_SOLVER_OPTIONS["mip_rel_gap"])
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    solved = {}
    real = allocation.solve

    def spy(form, **options):
        if not form.integrality.any():
            return real(form, **options)
        if (form.ub == 0).any():
            solved["support"] = real(form, **options)
            return solved["support"]
        # The full MILP: return its least accurate plan, a valid point of the full model.
        worst = real(replace(form, c=-form.c), **options)
        solved["milp"] = replace(worst, objective=form.sense * float(form.c @ worst.x))
        return solved["milp"]

    monkeypatch.setattr(allocation, "solve", spy)
    plan = problem.solve_accuracy_scaling(2.0 * capacity)
    assert set(solved) == {"support", "milp"}, "the support MILP met the gap; pick a demand where it misses"
    assert solved["milp"].objective < solved["support"].objective
    assert plan.solver_info["incumbent"] == "support"
    assert plan.expected_accuracy == pytest.approx(solved["support"].objective, abs=1e-9)
    bound = lp_bound(problem, 2.0 * capacity, None)
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
