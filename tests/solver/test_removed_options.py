"""Options of the deleted solver backends are rejected, not silently ignored.

HiGHS is the only solver, so ``backend=``/``warm_start=`` on :func:`solve`
and the allocation steps, ``solver_backend``/``solver_warm_start`` on the
control-plane constructors and the same keys in a scenario's
``control_overrides`` must all raise :class:`TypeError` instead of being
accepted and dropped.
"""

import dataclasses

import pytest

from repro.baselines import InferLineControlPlane, ProteusControlPlane
from repro.baselines.inferline import InferLineAllocationPolicy
from repro.baselines.proteus import ProteusAllocationPolicy
from repro.control.policies import SLOFeedbackPolicy
from repro.core import ControllerConfig
from repro.core.allocation import AllocationPlan, AllocationProblem
from repro.core.resource_manager import ResourceManager, ResourceManagerStats
from repro.experiments import runtime_overhead
from repro.scenarios import get_scenario
from repro.solver import solve
from tests.conftest import standard_form


def _model():
    return standard_form([1.0], ub=[3], integer=[1], maximize=True)


CHANNELS = {
    "solve(backend=)": lambda pipeline: solve(_model(), backend="scipy"),
    "solve(warm_start=)": lambda pipeline: solve(_model(), warm_start={"x": 1.0}),
    "AllocationProblem(solver_backend=)": lambda pipeline: AllocationProblem(pipeline, 4, solver_backend="auto"),
    "ResourceManager(solver_backend=)": lambda pipeline: ResourceManager(pipeline, 4, solver_backend="auto"),
    "ResourceManager(solver_warm_start=)": lambda pipeline: ResourceManager(pipeline, 4, solver_warm_start=True),
    "ControllerConfig(solver_backend=)": lambda pipeline: ControllerConfig(solver_backend="auto"),
    "ControllerConfig(solver_warm_start=)": lambda pipeline: ControllerConfig(solver_warm_start=True),
    "AllocationProblem.solve(warm_start=)": lambda pipeline: AllocationProblem(pipeline, 4).solve(
        10.0, warm_start={}
    ),
    "AllocationProblem.solve_hardware_scaling(warm_start=)": lambda pipeline: AllocationProblem(
        pipeline, 4
    ).solve_hardware_scaling(10.0, warm_start={}),
    "AllocationProblem.solve_accuracy_scaling(warm_start=)": lambda pipeline: AllocationProblem(
        pipeline, 4
    ).solve_accuracy_scaling(10.0, warm_start={}),
    "SLOFeedbackPolicy(solver_backend=)": lambda pipeline: SLOFeedbackPolicy(solver_backend="auto"),
    "ProteusAllocationPolicy(solver_backend=)": lambda pipeline: ProteusAllocationPolicy(solver_backend="auto"),
    "ProteusControlPlane(solver_backend=)": lambda pipeline: ProteusControlPlane(pipeline, 4, solver_backend="auto"),
    "InferLineAllocationPolicy(solver_backend=)": lambda pipeline: InferLineAllocationPolicy(solver_backend="auto"),
    "InferLineControlPlane(solver_backend=)": lambda pipeline: InferLineControlPlane(
        pipeline, 4, solver_backend="auto"
    ),
    "runtime_overhead.run(solver_backend=)": lambda pipeline: runtime_overhead.run(solver_backend="auto"),
}
for _system in ("loki", "proteus", "inferline", "slo_feedback"):
    CHANNELS[f"{_system} control_overrides solver_backend"] = (
        lambda pipeline, system=_system: get_scenario("smoke")
        .with_overrides(system=system, control_overrides={"solver_backend": "auto"})
        .build(0)
    )
CHANNELS["loki control_overrides solver_warm_start"] = (
    lambda pipeline: get_scenario("smoke").with_overrides(control_overrides={"solver_warm_start": True}).build(0)
)


@pytest.mark.parametrize("channel", list(CHANNELS))
def test_removed_option_raises_type_error(channel, small_pipeline):
    with pytest.raises(TypeError):
        CHANNELS[channel](small_pipeline)


@pytest.mark.parametrize(
    "owner, name",
    [
        (AllocationPlan, "solution_values"),
        (ResourceManagerStats, "warm_started_solves"),
        (runtime_overhead.RuntimeResult, "solver_backend"),
    ],
)
def test_removed_field_is_gone(owner, name):
    assert name not in {f.name for f in dataclasses.fields(owner)}


def test_inferline_control_plane_has_no_solver_backend(small_pipeline):
    assert not hasattr(InferLineControlPlane(small_pipeline, 4), "solver_backend")
