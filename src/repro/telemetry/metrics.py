"""Telemetry metric primitives: counters, gauges and histograms.

The simulator's hot paths (per-query dispatch, per-batch completion) touch
these on every event, so the primitives are deliberately tiny: ``__slots__``
objects whose update is a float add or a list append.  Histograms keep every
sample and sort on read, so their quantiles, over the whole run and over the
control window, are exact order statistics.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "Timeline"]


class Counter:
    """Monotonically increasing value (events, queries, drops...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value plus its observed peak (queue depths, active workers...)."""

    __slots__ = ("name", "value", "peak", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        if value > self.peak:
            self.peak = float(value)
        self.updates += 1

    def snapshot(self) -> Dict[str, float]:
        peak = self.peak if self.updates else 0.0
        return {self.name: self.value, f"{self.name}.peak": peak}

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Gauge({self.name}={self.value}, peak={self.peak})"


def _nearest_rank(ordered: List[float], q: float) -> float:
    """The ``q`` quantile of an ascending sample by the nearest-rank rule.

    ``ordered[min(n - 1, int(q * n))]``, so a small sample reads an exact
    order statistic (the median of ``[1, 3, 5]`` is 3); NaN when empty.
    """
    if not ordered:
        return math.nan
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Histogram:
    """Distribution summary of one sample list: the whole run and the control window.

    :meth:`observe` is one list append on the simulator's per-request hot
    path.  Readers compute everything from the stored samples, and the
    quantiles are exact nearest-rank order statistics of them: the sorted
    copy is built on the first read after new observations and reused until
    the next one, so a snapshot sorts at most once.

    The control window is a pair of marks into the same list.
    :meth:`close_window` ends the active window (the control plane calls it
    once per committed tick); :meth:`window_quantile` reads the active
    window when it has samples and the last non-empty window otherwise, so
    an empty window reports the most recent real distribution instead of
    the run-cumulative one, and NaN before any sample at all, which readers
    must treat as "no signal".  Its sorted copy is kept until the window's
    bounds change.
    """

    __slots__ = (
        "name",
        "quantiles",
        "_samples",
        "_sorted",
        "_window_start",
        "_last_start",
        "_sorted_bounds",
        "_window_sorted",
    )

    DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, name: str, quantiles: Iterable[float] = DEFAULT_QUANTILES):
        self.name = name
        self.quantiles = tuple(quantiles)
        self._samples: List[float] = []
        self._sorted: List[float] = []
        #: first sample of the active window, and of the last non-empty one
        self._window_start = 0
        self._last_start = 0
        #: the window bounds ``_window_sorted`` was sorted from
        self._sorted_bounds: Tuple[int, int] = (0, 0)
        self._window_sorted: List[float] = []

    def observe(self, x: float) -> None:
        self._samples.append(float(x))

    @property
    def samples(self) -> List[float]:
        """Every observation in arrival order (the stored list; do not mutate)."""
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return sum(self._samples, 0.0)

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else math.nan

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else math.nan

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._samples else math.nan

    def quantile(self, q: float) -> float:
        # Samples only ever grow, so a length match means the copy is current.
        if len(self._sorted) != len(self._samples):
            self._sorted = sorted(self._samples)
        return _nearest_rank(self._sorted, q)

    # -- the control window ------------------------------------------------------
    def close_window(self) -> None:
        """End the active window; an empty one keeps the previous fallback."""
        end = len(self._samples)
        if end > self._window_start:
            self._last_start = self._window_start
            self._window_start = end

    def _window_bounds(self) -> Tuple[int, int]:
        start = self._window_start
        end = len(self._samples)
        return (start, end) if end > start else (self._last_start, start)

    @property
    def window_count(self) -> int:
        """Observations in the window :meth:`window_quantile` currently reads."""
        start, end = self._window_bounds()
        return end - start

    def window_quantile(self, q: float) -> float:
        bounds = self._window_bounds()
        # Samples only ever grow, so equal bounds mean the same slice.
        if bounds != self._sorted_bounds:
            self._window_sorted = sorted(self._samples[bounds[0] : bounds[1]])
            self._sorted_bounds = bounds
        return _nearest_rank(self._window_sorted, q)

    def snapshot(self) -> Dict[str, float]:
        out = {
            f"{self.name}.count": float(self.count),
            f"{self.name}.sum": self.sum,
            f"{self.name}.mean": self.mean,
            f"{self.name}.min": self.min,
            f"{self.name}.max": self.max,
        }
        for q in self.quantiles:
            out[f"{self.name}.p{round(q * 100)}"] = self.quantile(q)
        out[f"{self.name}.window.count"] = float(self.window_count)
        out[f"{self.name}.window.p50"] = self.window_quantile(0.5)
        out[f"{self.name}.window.p99"] = self.window_quantile(0.99)
        return out

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f})"


class Timeline:
    """An append-only list of ``(time_s, label)`` events.

    Counters answer "how many"; a timeline answers "what happened when".
    Fault injection uses one (``faults.timeline``) so tests and policies can
    reconstruct the exact fail/recover/slowdown sequence of a run.  The flat
    :meth:`snapshot` only contributes the event count (snapshots must stay
    ``Dict[str, float]``); the full event list travels on
    :attr:`repro.simulator.metrics.SimulationSummary.fault_timeline`.
    """

    __slots__ = ("name", "events")

    def __init__(self, name: str):
        self.name = name
        self.events: List[Tuple[float, str]] = []

    def record(self, time_s: float, label: str) -> None:
        self.events.append((float(time_s), str(label)))

    @property
    def count(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        self.events.clear()

    def snapshot(self) -> Dict[str, float]:
        return {f"{self.name}.events": float(len(self.events))}

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Timeline({self.name}, n={len(self.events)})"
