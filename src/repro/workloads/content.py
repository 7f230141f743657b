"""Request-content models.

In the paper, each request carries an actual image (Bellevue traffic frames or
MS-COCO pictures); what the serving system observes is only *how many*
intermediate queries the detection model emits per image.  The content models
here generate exactly that quantity:

* a variant with multiplicative factor 1 (classification-style tasks) emits
  exactly one intermediate query per outgoing edge scaled by the edge's branch
  ratio;
* a detection-style variant emits a random number of objects whose mean is
  ``multiplicative_factor * branch_ratio`` per edge -- Poisson by default,
  reflecting frame-to-frame variability in how many cars/persons appear.

The ``"expected"`` mode removes the randomness (used by the validation
experiment that compares the simulator against the MILP's analytic
predictions).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.pipeline import Edge
from repro.core.profiles import ModelVariant

__all__ = ["ContentModel", "MultiplicativeContentModel"]


class ContentModel(Protocol):
    """Anything that can sample the downstream fan-out of one executed query."""

    def sample_children(self, variant: ModelVariant, edge: Edge, rng: np.random.Generator) -> int:
        ...  # pragma: no cover - protocol


class MultiplicativeContentModel:
    """Samples the number of intermediate queries per outgoing edge.

    Parameters
    ----------
    mode:
        ``"poisson"`` (default) draws Poisson counts with the profile mean;
        ``"expected"`` deterministically emits the rounded mean (variance-free,
        for validation runs).
    factor_scale:
        Global multiplier applied to every variant's multiplicative factor,
        used to inject estimation error (the runtime then has to re-learn the
        factors from heartbeats).
    """

    def __init__(self, mode: str = "poisson", factor_scale: float = 1.0):
        if mode not in ("poisson", "expected"):
            raise ValueError(f"unknown content-model mode {mode!r}")
        if factor_scale <= 0:
            raise ValueError("factor_scale must be positive")
        self.mode = mode
        self.factor_scale = float(factor_scale)

    def mean_children(self, variant: ModelVariant, edge: Edge) -> float:
        return variant.multiplicative_factor * self.factor_scale * edge.branch_ratio

    def sample_children(self, variant: ModelVariant, edge: Edge, rng: np.random.Generator) -> int:
        mean = self.mean_children(variant, edge)
        # A factor of exactly one per edge (classification-style task feeding a
        # single downstream task) is deterministic: every output image has
        # exactly one caption request, etc.
        if abs(mean - round(mean)) < 1e-9:
            return int(round(mean))
        if self.mode == "expected":
            return int(round(mean))
        return int(rng.poisson(mean))
