"""The allocation and Proteus MILPs are pinned array for array.

Row and column order are part of HiGHS's tie-breaking between equally good
plans, so a refactor of the model assembly must reproduce every array
exactly.  Each case captures the :class:`~repro.solver.StandardForm` one entry
point hands to ``solve`` (replaced by a stand-in that reports infeasibility, so
nothing is solved) and compares the sha256 of its dense arrays with a pinned
digest.  The digests were taken from the modelling-layer implementation these
arrays replaced.  ``arr + 0.0`` normalises ``-0.0`` to ``+0.0``: that
implementation negated whole objective vectors and left signed zeros.
"""

import hashlib

import numpy as np
import pytest

import repro.baselines.proteus as proteus
import repro.core.allocation as allocation
from repro.baselines import ProteusControlPlane
from repro.solver import INFEASIBLE, Solution
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
    "traffic-accuracy-120": "ecd88d48863baafc03982b5cb4198df5e69e2f7812ff4f3d7a3ea7373580360b",
    "traffic-accuracy-preferred-120": "ff74564b41b92241c55d11dfb716ff46c7a8d15d4d46f9f85f6fa09730c857fc",
    "traffic-accuracy-floor-120": "2ef21a0af14fdd2fe3011234caecbce1f4c49faf43daecd203a772dded9862d7",
    "traffic-hardware-742": "015c48c9dbcb58c84735977e483f80ddc0f1ac54983105d7143aed2cd33b58ca",
    "traffic-accuracy-742": "8745015fbe5a63c8809dd58c2707016f6dc970f633fced815c6dcc66bb7c7bce",
    "traffic-accuracy-preferred-742": "6eedf3e74f7939d8943347c44ba3c280c0c3148a496c3da881fe2cea71463036",
    "traffic-accuracy-floor-742": "36c5817b1d67c6fd9b9e763540e3e62bb705521184b7b78ddd8abfdf4e223648",
    "traffic-max-demand": "c5737e929d155f2630a5129330fca64d7f3619d9c39b79918700e560c282904c",
    "traffic-max-demand-best": "3e172415e0cba473c1a9d6d82152fc0d1871f8c2c3e724a5b3e850627f786813",
    "traffic-max-demand-floor": "d8516046931a388d4749a154a12b1bfc718869437581004b4e72512034dd7f57",
    "social-hardware-90": "2aa68a35d75efa446dd5c06d7f07b0f9ea1fe2c68387c1c254b6517d9b52ed36",
    "social-accuracy-90": "2e372b2a4dafa15b7ea3aec51a93b5e86cd9454a3e7542827de0adfd1f11c5d5",
    "social-accuracy-preferred-90": "a3470947baa3d2b133e42b2542ce29adb13d476faa9f7791c1049f2819d11fc5",
    "social-accuracy-floor-90": "520c0b291ff3bcf80c76d5ca8519c96443e0f8ac4471db817c160565a5531de0",
    "social-hardware-553": "c2a4e732272e16ef51077e2da721f89a373d4e30a5a72aedf6584051ac7b2635",
    "social-accuracy-553": "692cb855b884ec956f4a1ae6044286416c88538073f7aa2c461501e0ef0b882e",
    "social-accuracy-preferred-553": "7def9151336b0b7d890b5a0543cd4ee6ff0f77410fd4ff83483d801abe8f4c57",
    "social-accuracy-floor-553": "17b9348aeb6f0e251306fd9b0ee696f5cb4a83e3b47cad1b63efafb610d95ba9",
    "social-max-demand": "8071d8ebab6da76285e8819cf6d86105013a44579bf8747aa2d566611be3597a",
    "social-max-demand-best": "f69df110eff80c46b04690ad347727bf358cac3f066929945a74c2e0f7e91113",
    "social-max-demand-floor": "cd070f7430e9647632f2531ead8f53c8de9b42f7239cbdec4cdc43f800ec4081",
    "traffic-proteus-742": "fb536139ad9c12755e59e7be0cff9789891c5d507cd34af0d5c409fd4e8b10de",
}


def digest(form) -> str:
    h = hashlib.sha256()
    arrays = (form.c, form.A_ub.toarray(), form.b_ub, form.A_eq.toarray(), form.b_eq, form.lb, form.ub, form.integrality)
    for arr in arrays:
        arr = np.asarray(arr) + 0.0
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def allocation_cases():
    """Case name -> ``(pipeline, call)``; ``call`` runs one entry point of the pipeline's problem."""
    cases = {}
    for name, (_, demands, preferred) in PIPELINES.items():
        for d in demands:
            cases[f"{name}-hardware-{d:g}"] = name, lambda p, d=d: p.solve_hardware_scaling(d)
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
        return Solution(status=INFEASIBLE)

    monkeypatch.setattr(allocation, "solve", capture)
    monkeypatch.setattr(proteus, "solve", capture)
    return forms


@pytest.fixture(scope="module")
def problems():
    return {name: allocation.AllocationProblem(factory(), num_workers=20) for name, (factory, *_) in PIPELINES.items()}


@pytest.mark.parametrize("case", list(CASES))
def test_allocation_model_arrays_are_pinned(case, problems, captured):
    pipeline, call = CASES[case]
    call(problems[pipeline])
    assert len(captured) == 1
    assert digest(captured[0]) == DIGESTS[case]


def test_proteus_model_arrays_are_pinned(captured):
    ProteusControlPlane(traffic_analysis_pipeline(), num_workers=20).allocation.build_plan(742.0)
    assert len(captured) == 1
    assert digest(captured[0]) == DIGESTS["traffic-proteus-742"]


def test_every_digest_is_checked():
    assert set(CASES) | {"traffic-proteus-742"} == set(DIGESTS)
