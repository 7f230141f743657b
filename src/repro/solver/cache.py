"""Model fingerprinting and an LRU solution cache for the solver subsystem.

The Loki control plane re-solves structurally identical MILPs every control
period: the demand estimate is quantised, the multiplier estimates are
rounded, so consecutive periods frequently produce the *same* model.  The
cache in this module lets :func:`repro.solver.solve` return the previous
:class:`~repro.solver.model.Solution` for such re-solves without invoking
HiGHS at all.

Keys are content fingerprints of the model's arrays (objective sense and
vector, the sparse constraint rows and their structure, right-hand sides,
bounds, integrality) combined with the solver options, so a cache hit is only
possible when the solve would be bit-for-bit identical.

Hits are observable: the returned solution carries ``info["cache"] == "hit"``
(misses are stamped ``"miss"``), and :class:`SolutionCache` keeps hit/miss
counters used by the resource-manager runtime benchmarks.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional

from repro.solver.model import Solution, StandardForm

__all__ = ["fingerprint_model", "SolutionCache", "default_cache"]


def fingerprint_model(form: StandardForm) -> str:
    """Content hash of a model's arrays (hex digest).

    Two models with the same fingerprint describe the same optimisation
    problem in the same column order, so their solutions are
    interchangeable.
    """
    h = hashlib.sha256()
    h.update(str(form.sense).encode())
    for matrix in (form.A_ub, form.A_eq):
        h.update(repr(matrix.shape).encode())
        for arr in (matrix.indptr, matrix.indices, matrix.data):
            h.update(arr.tobytes())
    for arr in (form.c, form.b_ub, form.b_eq, form.integrality, form.lb, form.ub):
        h.update(arr.tobytes())
    return h.hexdigest()


class SolutionCache:
    """A small LRU cache mapping ``(fingerprint, options)`` to solutions.

    The stored solution is never handed out directly: ``put`` stores and
    hits return copies whose ``x`` array and ``info`` dict are private to the
    caller (so callers can mutate them without corrupting the cache).
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[str, Solution]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(fingerprint: str, options: Optional[Dict[str, object]] = None) -> str:
        option_sig = "&".join(f"{k}={options[k]!r}" for k in sorted(options)) if options else ""
        return f"{fingerprint}|{option_sig}"

    def get(self, key: str) -> Optional[Solution]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return replace(entry, x=entry.x.copy(), info={**entry.info, "cache": "hit"})

    def put(self, key: str, solution: Solution) -> None:
        if key not in self._entries and len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
        # Store a private copy so later caller-side mutation cannot leak in.
        self._entries[key] = replace(solution, x=solution.x.copy(), info=dict(solution.info))
        self._entries.move_to_end(key)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}


#: process-wide cache used by :func:`repro.solver.solve` unless the caller
#: provides their own (or disables caching).
default_cache = SolutionCache(maxsize=512)
