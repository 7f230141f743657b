"""Telemetry subsystem: counters, gauges and exact-quantile histograms.

Replaces the ad-hoc metric attributes that used to be scattered across the
frontend, workers and control planes with one registry per simulation run:

* :class:`~repro.telemetry.metrics.Counter` / ``Gauge`` -- O(1) event and
  level tracking with ``__slots__`` objects cheap enough for per-query paths.
* :class:`~repro.telemetry.metrics.Histogram` -- distribution summaries
  whose quantiles are exact nearest-rank order statistics, over the whole run
  and over the control window: a pair of marks into the same sample list
  (the control plane's per-window tail-latency view, closed once per
  committed control tick).
* :class:`~repro.telemetry.registry.TelemetryRegistry` -- named create-or-get
  surface whose ``snapshot()`` is a picklable flat dict, shipped through
  :class:`~repro.simulator.metrics.SimulationSummary` and aggregated across
  seeds by the sweep runner.
"""

from repro.telemetry.metrics import Counter, Gauge, Histogram, Timeline
from repro.telemetry.registry import TelemetryRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeline",
    "TelemetryRegistry",
]
