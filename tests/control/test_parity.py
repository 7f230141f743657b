"""Control-plane parity: the unified engine reproduces pre-refactor results.

The control-plane overhaul (PR 3) rebuilt Loki's Controller and the
InferLine/Proteus baselines as policies behind one
:class:`repro.control.engine.ControlPlaneEngine` and compiled the routing hot
path into bisect-based samplers.  These tests prove the refactor changed
*nothing* about simulated behaviour: compressed Figure-5/Figure-6 comparisons
(all three systems, 20 workers, 20 s traces, seed 0) must reproduce the
numbers captured from the pre-refactor control plane bit-for-bit.

The golden numbers were captured from the last pre-refactor commit (with the
two deliberate control-plane bug fixes of this PR already applied: baseline
plan caches keyed on a multiplier fingerprint, and the configured
``ewma_alpha`` used for baseline multiplier smoothing) — the compiled
inverse-CDF sampler consumes the RNG stream identically to the old
``np.searchsorted`` path, so every downstream event lands on the same
timestamps.

The Loki goldens of both figures were re-pinned once since: when the
accuracy-scaling MILP started solving over the maximal-batch paths only (see
"Path reduction" in :mod:`repro.core.allocation`), Loki's plans changed within
the reduction's objective loss bound.  The InferLine and Proteus goldens did
not move.  The fig6 Loki golden was re-pinned once more when accuracy
scaling started returning the support incumbent (see "Support incumbent" in
:mod:`repro.core.allocation`): a different plan within the same gap.  The
Loki and InferLine goldens of both figures were re-pinned once more when
every allocation-model solve turned HiGHS's feasibility jump off (see
"Feasibility jump" there): HiGHS then breaks ties between equally small
hardware-scaling plans differently.  The Proteus goldens did not move.
The Proteus goldens of both figures were re-pinned once, when Proteus's
MILP started solving over one batch per variant (see "Configuration
reduction" in :mod:`repro.baselines.proteus`): the reduced model has the
same optimum, but the old model's plans could serve a variant at a slower
batch of equal accuracy, so the first plan already differs and the runs
diverge from there.
The Loki goldens of both figures were re-pinned once more when accuracy
scaling began solving the full MILP only when no restricted MILP found a plan
(see "Support incumbent" in :mod:`repro.core.allocation`): the best
restricted plan replaces the node-limited full MILP's at the peak ticks.  The
InferLine and Proteus goldens did not move.
Every plan Loki's Resource Manager produces in these runs is also checked
against the full model by :func:`repro.core.validate_plan`.

Determinism notes baked into this configuration:

* ``PYTHONHASHSEED`` independence requires the (fixed) sorted emission of MILP
  coupling constraints in ``repro.core.allocation``;
* every system solves under :data:`repro.solver.DEFAULT_SOLVER_OPTIONS`,
  whose branch-and-bound node budget bounds HiGHS by work, not seconds, so
  no result depends on machine load;
* Loki's fig5 runs keep the restricted batch grid ``(1, 4, 16)`` the goldens
  were captured with.
"""

import json

import pytest

from repro.core import AllocationProblem, validate_plan
from repro.experiments.common import scenario_for_system
from repro.workloads import azure_like_trace, twitter_like_trace
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

#: summary metrics compared against the goldens (ints exact, floats to 1e-12)
FIELDS = (
    "total_requests",
    "completed_requests",
    "violated_requests",
    "dropped_requests",
    "late_requests",
    "slo_violation_ratio",
    "mean_accuracy",
    "mean_workers",
    "mean_utilization",
    "mean_latency_ms",
    "p99_latency_ms",
)

INT_FIELDS = {
    "total_requests",
    "completed_requests",
    "violated_requests",
    "dropped_requests",
    "late_requests",
}

LOKI_OVERRIDES = {"fig5": {"batch_sizes": (1, 4, 16)}, "fig6": {}}

#: captured by scripts snapshot of the pre-refactor control plane (see module docstring)
GOLDEN = json.loads(
    """\
{
    "fig5": {
        "loki": {
            "total_requests": 7764.0,
            "completed_requests": 2473.0,
            "violated_requests": 5291.0,
            "dropped_requests": 4092.0,
            "late_requests": 1199.0,
            "slo_violation_ratio": 0.6814786192684184,
            "mean_accuracy": 0.9704487750865644,
            "mean_workers": 16.61904761904762,
            "mean_utilization": 0.8309523809523811,
            "mean_latency_ms": 94.36054709392143,
            "p99_latency_ms": 242.36234174127557
        },
        "inferline": {
            "total_requests": 7764.0,
            "completed_requests": 238.0,
            "violated_requests": 4660.0,
            "dropped_requests": 0.0,
            "late_requests": 4660.0,
            "slo_violation_ratio": 0.9514087382605145,
            "mean_accuracy": 1.0,
            "mean_workers": 10.4,
            "mean_utilization": 0.52,
            "mean_latency_ms": 132.837345676441,
            "p99_latency_ms": 248.300482362533
        },
        "proteus": {
            "total_requests": 7764.0,
            "completed_requests": 452.0,
            "violated_requests": 7167.0,
            "dropped_requests": 1090.0,
            "late_requests": 6077.0,
            "slo_violation_ratio": 0.9406746292164326,
            "mean_accuracy": 0.9946313858440734,
            "mean_workers": 16.0,
            "mean_utilization": 0.8,
            "mean_latency_ms": 110.37302636518406,
            "p99_latency_ms": 246.93886066202782
        }
    },
    "fig6": {
        "loki": {
            "total_requests": 6321.0,
            "completed_requests": 2652.0,
            "violated_requests": 3669.0,
            "dropped_requests": 3037.0,
            "late_requests": 632.0,
            "slo_violation_ratio": 0.5804461319411486,
            "mean_accuracy": 0.9035967183181163,
            "mean_workers": 16.227272727272727,
            "mean_utilization": 0.8113636363636364,
            "mean_latency_ms": 62.67646936563496,
            "p99_latency_ms": 226.1602660164401
        },
        "inferline": {
            "total_requests": 6321.0,
            "completed_requests": 95.0,
            "violated_requests": 3543.0,
            "dropped_requests": 0.0,
            "late_requests": 3543.0,
            "slo_violation_ratio": 0.9738867509620671,
            "mean_accuracy": 1.0,
            "mean_workers": 10.4,
            "mean_utilization": 0.52,
            "mean_latency_ms": 131.07169018725486,
            "p99_latency_ms": 243.1711773925843
        },
        "proteus": {
            "total_requests": 6321.0,
            "completed_requests": 1076.0,
            "violated_requests": 5245.0,
            "dropped_requests": 0.0,
            "late_requests": 5245.0,
            "slo_violation_ratio": 0.8297737699731055,
            "mean_accuracy": 0.9216307960179396,
            "mean_workers": 18.181818181818183,
            "mean_utilization": 0.9090909090909091,
            "mean_latency_ms": 96.36644160573091,
            "p99_latency_ms": 247.30748897718203
        }
    }
}"""
)


def parity_specs(figure):
    if figure == "fig5":
        pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
        trace = azure_like_trace(duration_s=20, peak_qps=1.0, trough_fraction=0.12, seed=7)
        peak_over_hardware = 2.5
    else:
        pipeline = social_media_pipeline(latency_slo_ms=250.0)
        trace = twitter_like_trace(duration_s=20, peak_qps=1.0, trough_fraction=0.15, seed=11)
        peak_over_hardware = 2.7
    specs = {}
    for system in ("loki", "inferline", "proteus"):
        spec = scenario_for_system(
            system,
            pipeline,
            trace,
            num_workers=20,
            slo_ms=250.0,
            control_overrides=dict(LOKI_OVERRIDES[figure]) if system == "loki" else None,
        )
        specs[system] = spec.with_overrides(peak_over_hardware=peak_over_hardware)
    return specs


@pytest.fixture
def validated_plans(monkeypatch):
    """Validate every plan ``AllocationProblem.solve`` returns; yields the count."""
    solve = AllocationProblem.solve
    plans = []

    def solve_and_validate(self, demand_qps, **kwargs):
        plan = solve(self, demand_qps, **kwargs)
        validate_plan(self, plan)
        plans.append(plan)
        return plan

    monkeypatch.setattr(AllocationProblem, "solve", solve_and_validate)
    return plans


@pytest.mark.parametrize("figure", ["fig5", "fig6"])
def test_pre_refactor_figure_parity(figure, validated_plans):
    """Loki + InferLine + Proteus reproduce the pre-refactor fig5/fig6 numbers."""
    for system, spec in parity_specs(figure).items():
        summary = spec.run(seed=0)
        if system == "loki":
            assert validated_plans, "Loki's Resource Manager produced no plan"
        golden = GOLDEN[figure][system]
        for field in FIELDS:
            observed = getattr(summary, field)
            expected = golden[field]
            if field in INT_FIELDS:
                assert observed == int(expected), f"{figure}/{system}/{field}"
            else:
                # rel=1e-12 only cushions last-ulp libm differences across
                # platforms; on the reference container values match exactly.
                assert observed == pytest.approx(expected, rel=1e-12), f"{figure}/{system}/{field}"


@pytest.mark.parametrize("figure", ["fig5", "fig6"])
def test_parity_runs_through_unified_engine(figure):
    """The systems under parity really are ControlPlaneEngine policies."""
    from repro.control.engine import ControlPlaneEngine
    from repro.core.controller import Controller

    specs = parity_specs(figure)
    for system, spec in specs.items():
        simulation = spec.build(seed=0)
        control_plane = simulation.control_plane
        assert isinstance(control_plane, ControlPlaneEngine)
        if system == "loki":
            assert isinstance(control_plane, Controller)
