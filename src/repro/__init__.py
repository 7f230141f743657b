"""Reproduction of Loki (HPDC 2024): serving ML inference pipelines with hardware and accuracy scaling.

The package is organised as follows:

* :mod:`repro.core` -- the paper's contribution: pipeline graphs, MILP-based
  resource allocation (hardware + accuracy scaling), MostAccurateFirst
  routing, early dropping with opportunistic rerouting, and the Controller.
* :mod:`repro.control` -- the unified control-plane engine and the
  allocation-/routing-policy registries every serving system plugs into.
* :mod:`repro.telemetry` -- counters, gauges and exact-quantile
  histograms collected per simulation run and aggregated across sweeps.
* :mod:`repro.solver` -- the MILP substrate (the array form of a MILP, the
  solution cache and HiGHS in Gurobi's place).
* :mod:`repro.simulator` -- the discrete-event cluster simulator that replaces
  the paper's 20-GPU prototype.
* :mod:`repro.zoo` -- synthetic model-variant families and the two pipelines
  of Figure 2 (traffic analysis, social media).
* :mod:`repro.workloads` -- trace generators (Azure-like, Twitter-like),
  arrival processes and request-content models.
* :mod:`repro.baselines` -- InferLine-style (hardware scaling only) and
  Proteus-style (pipeline-agnostic accuracy scaling) baselines.
* :mod:`repro.experiments` -- one module per figure/table of the paper's
  evaluation, each regenerating the corresponding result.

Quickstart::

    from repro.zoo import traffic_analysis_pipeline
    from repro.core import Controller, ControllerConfig

    pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
    controller = Controller(pipeline, ControllerConfig(num_workers=20))
    controller.report_demand(0.0, 120.0)
    plan, routing = controller.step(now_s=0.0, force=True)
    print(plan.summary())
"""

__version__ = "1.0.0"

from repro.core import (
    AllocationPlan,
    AllocationProblem,
    Controller,
    ControllerConfig,
    LoadBalancer,
    ModelVariant,
    Pipeline,
    ProfileRegistry,
    ResourceManager,
    Task,
    Edge,
)

__all__ = [
    "__version__",
    "AllocationPlan",
    "AllocationProblem",
    "Controller",
    "ControllerConfig",
    "LoadBalancer",
    "ModelVariant",
    "Pipeline",
    "ProfileRegistry",
    "ResourceManager",
    "Task",
    "Edge",
]
