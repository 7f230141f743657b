"""Workload generation: demand traces, arrival processes and request content.

The paper drives its two pipelines with a day of the Microsoft Azure Functions
trace and the Twitter streaming trace, both rescaled (shape-preserving) to the
capacity of the 20-GPU cluster, and uses the Bellevue traffic / MS-COCO images
as request content.  Neither trace nor dataset ships with this reproduction,
so this package provides:

* :mod:`repro.workloads.traces` -- synthetic trace generators whose shapes
  match the published characteristics (diurnal double peak for Azure, bursty
  diurnal for Twitter), plus the shape-preserving rescaling used in the paper.
* :mod:`repro.workloads.arrivals` -- Poisson and evenly-spaced arrival
  processes driven by a per-second rate trace.
* :mod:`repro.workloads.content` -- content models that turn "an image" into
  the only thing the control plane cares about: how many intermediate queries
  the detection task emits per input (the multiplicative factor).
"""

from repro.workloads.traces import (
    Trace,
    azure_like_trace,
    twitter_like_trace,
    ramp_trace,
    constant_trace,
    step_trace,
    scale_trace_to_capacity,
)
from repro.workloads.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    MMPPProcess,
    PoissonProcess,
    UniformProcess,
    make_arrival_process,
)
from repro.workloads.content import ContentModel, MultiplicativeContentModel

__all__ = [
    "Trace",
    "azure_like_trace",
    "twitter_like_trace",
    "ramp_trace",
    "constant_trace",
    "step_trace",
    "scale_trace_to_capacity",
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "PoissonProcess",
    "UniformProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "make_arrival_process",
    "ContentModel",
    "MultiplicativeContentModel",
]
