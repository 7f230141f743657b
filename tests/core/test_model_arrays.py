"""The allocation and Proteus MILPs are pinned array for array.

Row and column order are part of HiGHS's tie-breaking between equally good
plans, so a refactor of the model assembly must reproduce every array
exactly.  Each case captures the full integer
:class:`~repro.solver.StandardForm` one entry point hands to ``solve`` and
compares the sha256 of its dense arrays with a pinned digest.  ``solve`` is
replaced by a stand-in that reports every MILP infeasible, so no MILP is
solved.  It solves LP relaxations for real, so accuracy scaling goes on from
its two relaxations to the support MILP and then, as no restricted MILP
found a plan, the full MILP (see "Support incumbent" in
:mod:`repro.core.allocation`); an LP that is infeasible is
reported solved at the zero point.  Hardware scaling's capacity LP is
feasible and solved for real, so above the hardware capacity its capacity
check ends the call before the MILP is built (see "Hardware capacity check"):
the ``*-hardware-742`` and ``*-hardware-553`` forms are therefore built
through ``_build_model`` and handed to ``solve`` directly, with their digests
unchanged.  Of the integer forms captured, the full one is
the one pinned: the restricted forms fix columns at ``ub = 0``.  The digests were taken from the modelling-layer
implementation these arrays replaced.  The 12 accuracy-scaling digests were
re-pinned once since, when that model started solving over the maximal-batch
paths only (see "Path reduction" in :mod:`repro.core.allocation`); the
hardware-scaling, ``max_supported_demand`` and Proteus digests guard that the
reduction stays confined to accuracy scaling.  The Proteus digest was
re-pinned once, when its model started carrying one batch per variant (see
"Configuration reduction" in :mod:`repro.baselines.proteus`).  ``arr + 0.0`` normalises
``-0.0`` to ``+0.0``: that implementation negated whole objective vectors and
left signed zeros.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

import repro.baselines.proteus as proteus
import repro.core.allocation as allocation
from repro.baselines import ProteusControlPlane
from repro.solver import INFEASIBLE, OPTIMAL, Solution, solve
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

#: pipeline -> (factory, demands, incumbent variants for the stability bonus).
#: The second demand is ~2.5x the hardware-scaling capacity of 20 workers
#: (296.8 QPS for traffic, 221.1 QPS for social at the default 250 ms SLO).
PIPELINES = {
    "traffic": (traffic_analysis_pipeline, (120.0, 742.0), ("efficientnet_b5", "vgg19", "yolov5m6")),
    "social": (social_media_pipeline, (90.0, 553.0), ("clip_vit_l14", "clip_vit_l14_336", "wide_resnet50")),
}

DIGESTS = {
    "traffic-hardware-120": "d21dbb2886d33218e237a8fdfcd83e9e34ae25734e5d7f4242ad824a70a80ca2",
    "traffic-accuracy-120": "0e81ffd83e4eade639b2e6a6b1355aa9b39a57db5592a3e4b3c99d4f9a5e354c",
    "traffic-accuracy-preferred-120": "271152bd2c419d37436ccd3f964903b917c55576c5d168b196780b673c416d5f",
    "traffic-accuracy-floor-120": "5caf376c1680c57d9f826564d301ef44b39854653c346ca685523c037ddbb447",
    "traffic-hardware-742": "015c48c9dbcb58c84735977e483f80ddc0f1ac54983105d7143aed2cd33b58ca",
    "traffic-accuracy-742": "5a77b1464392d0cebede7522d45e94dbbbc26facf3dcdbe282f7fd06b8cf24b7",
    "traffic-accuracy-preferred-742": "b294f6ee57cb0fac151169efcaab04ad21cb6611b932cc4453fcaeff5ac1a4ae",
    "traffic-accuracy-floor-742": "fc59c46f5b361b8e108724caf15e2efacc293daf991ff42e2086a69295c21555",
    "traffic-max-demand": "c5737e929d155f2630a5129330fca64d7f3619d9c39b79918700e560c282904c",
    "traffic-max-demand-best": "3e172415e0cba473c1a9d6d82152fc0d1871f8c2c3e724a5b3e850627f786813",
    "traffic-max-demand-floor": "d8516046931a388d4749a154a12b1bfc718869437581004b4e72512034dd7f57",
    "social-hardware-90": "2aa68a35d75efa446dd5c06d7f07b0f9ea1fe2c68387c1c254b6517d9b52ed36",
    "social-accuracy-90": "98c9f0f689dd23a3fd4b7ba4121499f2300382519b23593c12f2cb2afa32e032",
    "social-accuracy-preferred-90": "dae6c06cb4f6c4df6683bd2a5430f252fb1bf8eecac41f22b07c8b336ad16ab4",
    "social-accuracy-floor-90": "6f845b44b1956e9fd2d66bc4c92a03b99a2190ed2f0c3ec699fcaa327bf4ee05",
    "social-hardware-553": "c2a4e732272e16ef51077e2da721f89a373d4e30a5a72aedf6584051ac7b2635",
    "social-accuracy-553": "ac848443574086347bc104ccd2f88f3fea35571c83107420d8f2fcf7b0649680",
    "social-accuracy-preferred-553": "997ebb3c68cb4107f6571066e724ba2ddce494f2615b7d6bf2adaa63d30864b7",
    "social-accuracy-floor-553": "806f3849993ec91daab5549f7fb5eee4ec7cc61933d28563445bc34e49a04475",
    "social-max-demand": "8071d8ebab6da76285e8819cf6d86105013a44579bf8747aa2d566611be3597a",
    "social-max-demand-best": "f69df110eff80c46b04690ad347727bf358cac3f066929945a74c2e0f7e91113",
    "social-max-demand-floor": "cd070f7430e9647632f2531ead8f53c8de9b42f7239cbdec4cdc43f800ec4081",
    "traffic-proteus-742": "176bfaa9b441512356dacab7a6627ad8ffadf7deb2e1d04b6be771e7305305a6",
}


def digest(form) -> str:
    h = hashlib.sha256()
    arrays = (form.c, form.A_ub.toarray(), form.b_ub, form.A_eq.toarray(), form.b_eq, form.lb, form.ub, form.integrality)
    for arr in arrays:
        arr = np.asarray(arr) + 0.0
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def hand_hardware_milp_to_solve(problem, demand):
    """What ``solve_hardware_scaling(demand)`` solved before its capacity check ended the call: its MILP."""
    form, _, _ = problem._build_model(demand_qps=demand, mode=allocation.HARDWARE_SCALING, restrict_to_best=True)
    allocation.solve(form)


def allocation_cases():
    """Case name -> ``(pipeline, call)``; ``call`` runs one entry point of the pipeline's problem."""
    cases = {}
    for name, (_, demands, preferred) in PIPELINES.items():
        low, high = demands
        cases[f"{name}-hardware-{low:g}"] = name, lambda p, d=low: p.solve_hardware_scaling(d)
        cases[f"{name}-hardware-{high:g}"] = name, lambda p, d=high: hand_hardware_milp_to_solve(p, d)
        for d in demands:
            cases[f"{name}-accuracy-{d:g}"] = name, lambda p, d=d: p.solve_accuracy_scaling(d)
            cases[f"{name}-accuracy-preferred-{d:g}"] = name, lambda p, d=d, preferred=preferred: (
                p.solve_accuracy_scaling(d, preferred_variants=preferred)
            )
            cases[f"{name}-accuracy-floor-{d:g}"] = name, lambda p, d=d: p.solve_accuracy_scaling(d, accuracy_floor=0.9)
        cases[f"{name}-max-demand"] = name, lambda p: p.max_supported_demand()
        cases[f"{name}-max-demand-best"] = name, lambda p: p.max_supported_demand(restrict_to_best=True)
        cases[f"{name}-max-demand-floor"] = name, lambda p: p.max_supported_demand(accuracy_floor=0.9)
    return cases


CASES = allocation_cases()


@pytest.fixture
def captured(monkeypatch):
    forms = []

    def capture(form, **options):
        forms.append(form)
        if form.integrality.any():
            return Solution(status=INFEASIBLE)
        relaxation = solve(form, **options)
        if relaxation.is_optimal:
            return relaxation
        return Solution(status=OPTIMAL, objective=0.0, x=np.zeros(form.num_vars))

    monkeypatch.setattr(allocation, "solve", capture)
    monkeypatch.setattr(proteus, "solve", capture)
    return forms


@pytest.fixture(scope="module")
def problems():
    return {name: allocation.AllocationProblem(factory(), num_workers=20) for name, (factory, *_) in PIPELINES.items()}


def integer_forms(captured):
    return [form for form in captured if form.integrality.any()]


def full_form(captured):
    """The integer form with no column fixed at ``ub = 0``: the entry point's full MILP."""
    return max(integer_forms(captured), key=lambda form: np.count_nonzero(form.ub))


@pytest.mark.parametrize("case", list(CASES))
def test_allocation_model_arrays_are_pinned(case, problems, captured):
    pipeline, call = CASES[case]
    call(problems[pipeline])
    # Accuracy scaling: the support MILP and the full MILP; hardware scaling
    # and max_supported_demand: their MILP alone.
    assert len(integer_forms(captured)) == (2 if "-accuracy-" in case else 1)
    assert digest(full_form(captured)) == DIGESTS[case]


def differing_fields(form, other):
    """Names of the arrays in which two forms differ."""
    def dense(value):
        return value.toarray() if hasattr(value, "toarray") else value

    return {
        f.name for f in fields(form)
        if not np.array_equal(dense(getattr(form, f.name)), dense(getattr(other, f.name)))
    }


@pytest.mark.parametrize("case", [case for case in CASES if "-accuracy-" in case])
def test_relaxations_and_support_differ_from_the_milp_only_in_integrality_b_ub_and_ub(case, problems, captured):
    pipeline, call = CASES[case]
    call(problems[pipeline])
    relaxation, slack, support, milp = captured
    assert differing_fields(relaxation, milp) == {"integrality"}
    assert not relaxation.integrality.any()
    # The slack relaxation leaves ROUNDING_SLACK_WORKERS of the cluster-size row free.
    assert differing_fields(slack, relaxation) == {"b_ub"}
    tightened = np.flatnonzero(slack.b_ub != relaxation.b_ub)
    assert len(tightened) == 1
    assert relaxation.b_ub[tightened[0]] == problems[pipeline].num_workers  # the cluster-size row
    assert relaxation.b_ub[tightened[0]] - slack.b_ub[tightened[0]] == allocation.ROUNDING_SLACK_WORKERS
    assert differing_fields(support, milp) == {"ub"}
    zeroed = support.ub != milp.ub
    assert np.all(support.ub[zeroed] == 0.0)


def test_proteus_model_arrays_are_pinned(captured):
    ProteusControlPlane(traffic_analysis_pipeline(), num_workers=20).allocation.build_plan(742.0)
    assert len(captured) == 1
    assert digest(captured[0]) == DIGESTS["traffic-proteus-742"]


def test_every_digest_is_checked():
    assert set(CASES) | {"traffic-proteus-742"} == set(DIGESTS)
