"""The support incumbent keeps the guarantee HiGHS gives.

``AllocationProblem.solve_accuracy_scaling`` solves the LP relaxation, then
the MILP restricted to the LP's support, and only then the full MILP (see
"Support incumbent" in :mod:`repro.core.allocation`).  On a demand grid of
1.1x-3.0x the hardware-scaling capacity of both paper pipelines, with and
without the stability bonus, at the default gap and at the 1% gap, every plan
must be valid for the full model, and a plan taken from the support MILP must
lie within ``mip_rel_gap`` of an LP bound computed here.
"""

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
    """``(problem, gap, rows)`` with one ``(demand, preferred, plan)`` row per grid point."""
    name, gap = request.param
    problem = make_problem(name, gap)
    capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    rows = []
    for multiple in GRID:
        for preferred in (None, PIPELINES[name][1]):
            demand = multiple * capacity
            plan = problem.solve_accuracy_scaling(demand, preferred_variants=preferred)
            rows.append((demand, preferred, plan))
    return problem, gap, rows


def test_every_plan_is_valid_for_the_full_model(grid):
    problem, _, rows = grid
    for demand, _, plan in rows:
        assert plan is not None and plan.feasible and plan.mode == ACCURACY_SCALING, demand
        validate_plan(problem, plan)
    # The grid reaches both the support MILP and the full MILP.
    assert {plan.solver_info["incumbent"] for _, _, plan in rows} == {"support", "milp"}


def test_support_plans_are_within_the_gap_of_the_lp_bound(grid):
    problem, gap, rows = grid
    for demand, preferred, plan in rows:
        if plan.solver_info["incumbent"] != "support":
            continue
        value = objective(problem, plan, preferred)
        bound = lp_bound(problem, demand, preferred)
        assert bound - value <= gap * abs(value) + 1e-9, demand
        recorded = plan.solver_info["lp_bound_gap"]
        assert recorded == pytest.approx((bound - value) / abs(value), abs=1e-6)


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
