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

from typing import Dict, Optional, Protocol, Tuple

from repro.core.draws import Draws
from repro.core.pipeline import Edge
from repro.core.profiles import ModelVariant

__all__ = ["ContentModel", "MultiplicativeContentModel"]


class ContentModel(Protocol):
    """Anything that can sample the downstream fan-out of one executed query.

    The simulator reads :meth:`fanout` at plan application and draws the
    counts itself.
    """

    def fanout(self, variant: ModelVariant, edge: Edge) -> Tuple[Optional[int], float]:
        ...  # pragma: no cover - protocol

    def sample_children(self, variant: ModelVariant, edge: Edge, rng: Draws) -> int:
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

    Both are fixed for the model's lifetime: each (variant, edge) pair's mean
    and whether its count is fixed are computed once and memoised.
    """

    def __init__(self, mode: str = "poisson", factor_scale: float = 1.0):
        if mode not in ("poisson", "expected"):
            raise ValueError(f"unknown content-model mode {mode!r}")
        if factor_scale <= 0:
            raise ValueError("factor_scale must be positive")
        self.mode = mode
        self.factor_scale = float(factor_scale)
        #: (id(variant), id(edge)) -> (variant, edge, (fixed count or None,
        #: mean)).  Keyed by identity: hashing a frozen ModelVariant is slow,
        #: and raises when it carries a latency-table dict.  The entry holds
        #: both objects, so their ids cannot be reused while it exists.
        self._fanout: Dict[Tuple[int, int], Tuple[ModelVariant, Edge, Tuple[Optional[int], float]]] = {}

    def mean_children(self, variant: ModelVariant, edge: Edge) -> float:
        return variant.multiplicative_factor * self.factor_scale * edge.branch_ratio

    def fanout(self, variant: ModelVariant, edge: Edge) -> Tuple[Optional[int], float]:
        """``(fixed count or None, mean)`` of the children one query of
        ``variant`` emits on ``edge``: the fixed count when the count is
        deterministic, else ``None`` and the Poisson mean to draw from.

        The simulator reads it once per plan application and draws the
        counts itself; :meth:`sample_children` draws through it.
        """
        key = (id(variant), id(edge))
        entry = self._fanout.get(key)
        if entry is None:
            mean = self.mean_children(variant, edge)
            # A factor of exactly one per edge (classification-style task
            # feeding a single downstream task) is deterministic: every output
            # image has exactly one caption request, etc.
            fixed = abs(mean - round(mean)) < 1e-9 or self.mode == "expected"
            entry = self._fanout[key] = (variant, edge, (int(round(mean)) if fixed else None, mean))
        return entry[2]

    def sample_children(self, variant: ModelVariant, edge: Edge, rng: Draws) -> int:
        fixed, mean = self.fanout(variant, edge)
        if fixed is not None:
            return fixed
        return int(rng.poisson(mean))
