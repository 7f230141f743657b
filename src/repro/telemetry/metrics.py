"""Telemetry metric primitives: counters, gauges and streaming histograms.

The simulator's hot paths (per-query dispatch, per-batch completion) touch
these on every event, so the primitives are deliberately tiny: ``__slots__``
objects whose update is a float add.  Histograms estimate quantiles with the
P² algorithm (Jain & Chlamtac, 1985) so latency distributions are tracked in
O(1) memory per quantile instead of storing every sample.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "P2Quantile", "Timeline", "WindowedHistogram"]


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


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (no sample storage).

    Five markers track the running quantile; each observation adjusts marker
    heights with parabolic interpolation.  Until five samples have arrived the
    estimator falls back to the exact small-sample quantile.
    """

    __slots__ = ("q", "_initial", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not (0.0 < q < 1.0):
            raise ValueError("quantile must be in (0, 1)")
        self.q = float(q)
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        self._increments: Tuple[float, ...] = ()

    def observe(self, x: float) -> None:
        self.observe_many((float(x),))

    def observe_many(self, values) -> None:
        """Feed a sequence of observations through the estimator.

        Exactly equivalent to calling :meth:`observe` per element in order —
        P² is order-dependent and the order is preserved — but the marker
        update loop runs with locals hoisted, which is what makes the
        buffered :class:`Histogram` flush cheap on the simulator's
        per-request hot path.
        """
        start = 0
        total = len(values)
        while not self._heights and start < total:
            self._initial.append(float(values[start]))
            start += 1
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._positions = [1, 2, 3, 4, 5]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        if start >= total:
            return
        if start:
            values = values[start:]

        # The marker state lives in scalar locals for the whole batch: the
        # update below is exactly the classic five-marker P² step (cell
        # search, position/desired bump, parabolic adjustment of the three
        # middle markers with linear fallback), just with every list index
        # unrolled.  Marker 0 never moves (position 1, desired increment 0),
        # so only p1..p4 / d1..d4 are tracked.  The cell search compares
        # against the middle marker first (binary order — fewest expected
        # compares per sample).
        #
        # Two representation choices keep the adjustment branch — which
        # monotone-trending streams (a saturated run's latencies) hit on
        # nearly every sample — cheap without moving a single float result:
        # positions are integer-valued floats (exact below 2^53, so every
        # difference, product and quotient is bit-identical to the int
        # version while skipping the per-op int→float conversions), and the
        # ±1 adjustment directions are split into separate branches so
        # ``step`` is constant-folded ((p1 - 1 + step) becomes p1 for the
        # +1 case, p1 - 2 for the -1 case — exact integer arithmetic).
        h0, h1, h2, h3, h4 = self._heights
        _, p1, p2, p3, p4 = self._positions
        p1 += 0.0
        p2 += 0.0
        p3 += 0.0
        p4 += 0.0
        _, d1, d2, d3, d4 = self._desired
        _, inc1, inc2, inc3, _ = self._increments
        for x in values:
            if x < h2:
                if x < h1:
                    if x < h0:
                        h0 = x
                    p1 += 1.0
                    p2 += 1.0
                    p3 += 1.0
                    p4 += 1.0
                else:
                    p2 += 1.0
                    p3 += 1.0
                    p4 += 1.0
            elif x < h3:
                p3 += 1.0
                p4 += 1.0
            elif x < h4:
                p4 += 1.0
            else:
                h4 = x
                p4 += 1.0
            d1 += inc1
            d2 += inc2
            d3 += inc3
            d4 += 1.0

            delta = d1 - p1
            if delta >= 1.0:
                if p2 - p1 > 1.0:
                    candidate = h1 + (1 / (p2 - 1.0)) * (
                        p1 * (h2 - h1) / (p2 - p1) + (p2 - p1 - 1.0) * (h1 - h0) / (p1 - 1.0)
                    )
                    if h0 < candidate < h2:
                        h1 = candidate
                    else:  # parabolic prediction left the bracket: linear fallback
                        h1 = h1 + (h2 - h1) / (p2 - p1)
                    p1 += 1.0
            elif delta <= -1.0 and 1.0 - p1 < -1.0:
                candidate = h1 + (-1 / (p2 - 1.0)) * (
                    (p1 - 2.0) * (h2 - h1) / (p2 - p1) + (p2 - p1 + 1.0) * (h1 - h0) / (p1 - 1.0)
                )
                if h0 < candidate < h2:
                    h1 = candidate
                else:
                    h1 = h1 - (h0 - h1) / (1.0 - p1)
                p1 -= 1.0

            delta = d2 - p2
            if delta >= 1.0:
                if p3 - p2 > 1.0:
                    candidate = h2 + (1 / (p3 - p1)) * (
                        (p2 - p1 + 1.0) * (h3 - h2) / (p3 - p2) + (p3 - p2 - 1.0) * (h2 - h1) / (p2 - p1)
                    )
                    if h1 < candidate < h3:
                        h2 = candidate
                    else:
                        h2 = h2 + (h3 - h2) / (p3 - p2)
                    p2 += 1.0
            elif delta <= -1.0 and p1 - p2 < -1.0:
                candidate = h2 + (-1 / (p3 - p1)) * (
                    (p2 - p1 - 1.0) * (h3 - h2) / (p3 - p2) + (p3 - p2 + 1.0) * (h2 - h1) / (p2 - p1)
                )
                if h1 < candidate < h3:
                    h2 = candidate
                else:
                    h2 = h2 - (h1 - h2) / (p1 - p2)
                p2 -= 1.0

            delta = d3 - p3
            if delta >= 1.0:
                if p4 - p3 > 1.0:
                    candidate = h3 + (1 / (p4 - p2)) * (
                        (p3 - p2 + 1.0) * (h4 - h3) / (p4 - p3) + (p4 - p3 - 1.0) * (h3 - h2) / (p3 - p2)
                    )
                    if h2 < candidate < h4:
                        h3 = candidate
                    else:
                        h3 = h3 + (h4 - h3) / (p4 - p3)
                    p3 += 1.0
            elif delta <= -1.0 and p2 - p3 < -1.0:
                candidate = h3 + (-1 / (p4 - p2)) * (
                    (p3 - p2 - 1.0) * (h4 - h3) / (p4 - p3) + (p4 - p3 + 1.0) * (h3 - h2) / (p3 - p2)
                )
                if h2 < candidate < h4:
                    h3 = candidate
                else:
                    h3 = h3 - (h2 - h3) / (p2 - p3)
                p3 -= 1.0

        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [1, int(p1), int(p2), int(p3), int(p4)]
        self._desired = [self._desired[0], d1, d2, d3, d4]

    def value(self) -> float:
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return math.nan
        ordered = sorted(self._initial)
        index = min(len(ordered) - 1, int(self.q * len(ordered)))
        return ordered[index]


class Histogram:
    """Streaming distribution summary: count/sum/min/max plus P² quantiles.

    Observations are buffered and flushed through the P² estimators in
    batches: :meth:`observe` is one list append on the simulator's
    per-request hot path, while the order-preserving bulk flush
    (:meth:`P2Quantile.observe_many` plus C-speed ``sum``/``min``/``max``
    for the aggregates) runs once every :attr:`FLUSH_LIMIT` samples or when
    a reader needs a value.  Every reader flushes first, so observable
    state is always exactly what unbuffered per-sample updates would give.
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_quantiles", "_buffer")

    DEFAULT_QUANTILES = (0.5, 0.9, 0.99)
    FLUSH_LIMIT = 512

    def __init__(self, name: str, quantiles: Iterable[float] = DEFAULT_QUANTILES):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._quantiles = {q: P2Quantile(q) for q in quantiles}
        self._buffer: List[float] = []

    def observe(self, x: float) -> None:
        buffer = self._buffer
        buffer.append(float(x))
        if len(buffer) >= self.FLUSH_LIMIT:
            self._flush()

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a whole chunk of observations in one call.

        Equivalent to observing each element in order, without the
        per-sample method call and length check.
        """
        buffer = self._buffer
        if type(values) is list:
            # bulk callers hand over plain float lists; skip the map()
            buffer.extend(values)
        else:
            buffer.extend(map(float, values))
        if len(buffer) >= self.FLUSH_LIMIT:
            self._flush()

    def _flush(self) -> None:
        buffer = self._buffer
        if not buffer:
            return
        self._buffer = []
        self._count += len(buffer)
        self._sum += sum(buffer)
        low = min(buffer)
        high = max(buffer)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        for estimator in self._quantiles.values():
            estimator.observe_many(buffer)

    # Readers flush first, so observable state always equals what unbuffered
    # per-sample updates would have produced.
    @property
    def count(self) -> int:
        self._flush()
        return self._count

    @property
    def sum(self) -> float:
        self._flush()
        return self._sum

    @property
    def min(self) -> float:
        self._flush()
        return self._min

    @property
    def max(self) -> float:
        self._flush()
        return self._max

    @property
    def mean(self) -> float:
        self._flush()
        return self._sum / self._count if self._count else math.nan

    def quantile(self, q: float) -> float:
        self._flush()
        return self._quantiles[q].value()

    def snapshot(self) -> Dict[str, float]:
        self._flush()
        count = self._count
        out = {
            f"{self.name}.count": float(count),
            f"{self.name}.sum": self._sum,
            f"{self.name}.mean": self._sum / count if count else math.nan,
            f"{self.name}.min": self._min if count else math.nan,
            f"{self.name}.max": self._max if count else math.nan,
        }
        for q, estimator in self._quantiles.items():
            out[f"{self.name}.p{round(q * 100)}"] = estimator.value()
        return out

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f})"


class WindowedHistogram:
    """Exact quantiles over a rotating pair of observation windows.

    :class:`Histogram` answers "what does the whole run look like so far";
    this answers "what did the *last control window* look like".  Observations
    accumulate in the active window's raw buffer; :meth:`rotate` closes the
    window (the active buffer becomes the completed window, a fresh buffer
    starts).  :meth:`quantile` reads the active window when it has samples and
    falls back to the last completed window otherwise, so an empty window
    reports the most recent real distribution instead of a stale
    run-cumulative estimate — and NaN before any sample at all, which readers
    must treat as "no signal".

    Quantiles are exact (sorted-buffer indexing with the same small-sample
    convention as :class:`P2Quantile`): a control window holds at most a few
    thousand latencies and is read once or twice per tick, so sorting on
    demand beats streaming estimation and has no warm-up distortion.  The
    sorted buffer is cached until the next observation.
    """

    __slots__ = ("name", "_active", "_last", "_cache_key", "_cache_sorted", "windows")

    def __init__(self, name: str):
        self.name = name
        self._active: List[float] = []
        self._last: List[float] = []
        self._cache_key: Tuple[int, int] = (-1, -1)
        self._cache_sorted: List[float] = []
        #: completed windows so far (rotate() calls)
        self.windows = 0

    def observe(self, x: float) -> None:
        self._active.append(float(x))

    def observe_many(self, values: Iterable[float]) -> None:
        if type(values) is list:
            self._active.extend(values)
        else:
            self._active.extend(map(float, values))

    def rotate(self) -> None:
        """Close the active window; it becomes the fallback for empty reads."""
        if self._active:
            self._last = self._active
            self._active = []
            self._cache_key = (-1, -1)
        self.windows += 1

    @property
    def count(self) -> int:
        """Observations in the window :meth:`quantile` currently reads."""
        return len(self._active) or len(self._last)

    def quantile(self, q: float) -> float:
        samples = self._active or self._last
        if not samples:
            return math.nan
        # Buffers only ever grow between rotations and rotate() invalidates
        # outright, so the (active, last) length pair uniquely keys the cache.
        key = (len(self._active), len(self._last))
        if key != self._cache_key:
            self._cache_sorted = sorted(samples)
            self._cache_key = key
        ordered = self._cache_sorted
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def snapshot(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": float(self.count),
            f"{self.name}.p50": self.quantile(0.5),
            f"{self.name}.p99": self.quantile(0.99),
        }

    def __repr__(self):  # pragma: no cover - debug helper
        return f"WindowedHistogram({self.name}, n={self.count}, windows={self.windows})"


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
