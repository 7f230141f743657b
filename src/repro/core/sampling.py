"""Compiled categorical samplers for the routing hot path.

A :class:`RoutingTable` is rebuilt at most once a second (the routing refresh
interval) but sampled once per query — millions of times per simulated day.
:class:`CompiledSampler` therefore compiles a probability vector once into a
cumulative-probability list for scalar inverse-CDF draws.  ``bisect`` on a
plain Python float list beats ``np.searchsorted`` on scalar draws by ~5x
because it avoids the NumPy scalar-dispatch overhead, while performing the
*same* float comparisons (the list holds the exact ``float64`` cumsum values),
so sampled indices are bit-identical to the NumPy path.

:meth:`CompiledSampler.choose_index` consumes exactly one ``rng.random()`` per
call -- the same RNG stream as the pre-compiled implementation, which keeps
simulations byte-identical across the refactor.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

__all__ = ["CompiledSampler"]


class CompiledSampler:
    """One normalized categorical distribution, compiled for fast sampling."""

    __slots__ = ("cumulative", "cumulative_list", "size")

    def __init__(self, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        total = float(weights.sum())
        if total <= 0.0 or not np.isfinite(total):
            raise ValueError("weights must have a positive finite sum")
        #: exact float64 cumulative probabilities (last entry == 1.0 up to fp)
        self.cumulative = np.cumsum(weights / total)
        #: the same values as Python floats — public so hot-path callers (see
        #: RoutingTable.choose) can inline the bisect without a method call
        self.cumulative_list = self.cumulative.tolist()
        self.size = int(weights.size)

    # -- scalar hot path -------------------------------------------------------
    def choose_index(self, rng: np.random.Generator) -> int:
        """One inverse-CDF draw; consumes exactly one uniform from ``rng``.

        Hot-path callers may inline this (bisect over :attr:`cumulative_list`
        then clamp to ``size - 1``); any semantic change here must be mirrored
        in ``RoutingTable.choose``.
        """
        index = bisect_right(self.cumulative_list, rng.random())
        last = self.size - 1
        return index if index < last else last

    def probabilities(self) -> np.ndarray:
        return np.diff(self.cumulative, prepend=0.0)

    def __len__(self) -> int:
        return self.size
