"""Baseline serving systems re-implemented on the same simulator substrate.

The paper compares Loki against two state-of-the-art systems:

* **InferLine** [Crankshaw et al., SoCC '20] -- pipeline-aware but
  accuracy-agnostic: it provisions replicas and batch sizes for a *fixed,
  client-chosen* model variant per task (hardware scaling only).  When demand
  exceeds what the cluster can serve with those variants, it has no accuracy
  knob left and SLO violations climb.
* **Proteus** [Ahmad et al., ASPLOS '24] -- accuracy scaling for independent
  models, applied pipeline-agnostically: each task is scaled on its own slice
  of the cluster without knowledge of inter-task dependencies, which creates
  throughput bottlenecks and suboptimal accuracy choices.

Both baselines, like Loki's Controller, are
:class:`~repro.control.engine.ControlPlaneEngine` subclasses that differ only
in their :class:`~repro.control.policies.AllocationPolicy`, so Figures 5-6 run
all three systems through one control loop on an identical cluster, trace and
request stream.
"""

from repro.baselines.inferline import InferLineControlPlane
from repro.baselines.proteus import ProteusControlPlane

__all__ = [
    "InferLineControlPlane",
    "ProteusControlPlane",
]
