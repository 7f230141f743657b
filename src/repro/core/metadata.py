"""The Metadata Store (Section 3).

The Metadata Store is the Controller's shared state: the registered pipeline
graph and model-variant profiles, the historical query demand reported by the
Frontend, the multiplicative factors reported by Workers through heartbeats,
and the currently active allocation plan and routing plan.  Both the Resource
Manager and the Load Balancer read from it; the Frontend and Workers write to
it (through the Controller).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.core.pipeline import Pipeline

__all__ = ["MetadataStore", "DemandSample", "multiplier_fingerprint"]


def multiplier_fingerprint(estimates: Dict[str, float]) -> Tuple[Tuple[str, float], ...]:
    """Quantised snapshot of multiplier estimates for plan-cache keys.

    Estimates are quantised to 0.5 so heartbeat jitter does not defeat the
    cache (or trigger gratuitous re-planning) while real drift invalidates
    stale plans — the fix for the seed bug where baseline plan caches were
    keyed on demand alone and served stale plans forever.
    """
    return tuple(sorted((name, round(value * 2) / 2) for name, value in estimates.items()))


@dataclass(frozen=True)
class DemandSample:
    """One demand observation reported by the Frontend."""

    timestamp_s: float
    demand_qps: float


class MetadataStore:
    """Holds pipeline metadata, demand history and runtime estimates.

    Parameters
    ----------
    pipeline:
        The registered pipeline (its :class:`~repro.core.profiles.ProfileRegistry`
        doubles as the profile storage the Model Profiler would populate).
    demand_history_size:
        Number of demand samples to retain.
    multiplier_ewma_alpha:
        Smoothing factor for the per-variant multiplicative-factor estimates
        derived from worker heartbeats.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        demand_history_size: int = 512,
        multiplier_ewma_alpha: float = 0.3,
    ):
        self.pipeline = pipeline
        self.demand_history: Deque[DemandSample] = deque(maxlen=demand_history_size)
        self.multiplier_ewma_alpha = float(multiplier_ewma_alpha)
        # Seed multiplicative-factor estimates from the profiles; heartbeats
        # refine them at runtime (Section 4.2, "Estimating multiplicative factors").
        self._multiplier_estimates: Dict[str, float] = {}
        for task_name in pipeline.tasks:
            for variant in pipeline.registry.variants(task_name):
                self._multiplier_estimates[variant.name] = variant.multiplicative_factor
        self.current_plan = None
        self.current_routing = None
        self.latency_slo_ms = pipeline.latency_slo_ms

    # -- demand -------------------------------------------------------------
    def record_demand(self, timestamp_s: float, demand_qps: float) -> None:
        """Record the demand observed by the Frontend over the last interval."""
        if demand_qps < 0:
            raise ValueError("demand cannot be negative")
        self.demand_history.append(DemandSample(timestamp_s=timestamp_s, demand_qps=demand_qps))

    def recent_demand(self, window: int = 1) -> List[DemandSample]:
        """The most recent ``window`` demand samples (oldest first)."""
        if window <= 0:
            return []
        samples = list(self.demand_history)
        return samples[-window:]

    def latest_demand_qps(self, default: float = 0.0) -> float:
        return self.demand_history[-1].demand_qps if self.demand_history else default

    def peak_demand_qps(self, default: float = 0.0) -> float:
        if not self.demand_history:
            return default
        return max(sample.demand_qps for sample in self.demand_history)

    # -- multiplicative factors ----------------------------------------------
    def report_multiplier(self, variant_name: str, observed_factor: float) -> None:
        """Fold a heartbeat-reported multiplicative factor into the EWMA estimate."""
        if observed_factor < 0:
            raise ValueError("multiplicative factor cannot be negative")
        if variant_name not in self._multiplier_estimates:
            raise KeyError(f"unknown variant {variant_name!r}")
        alpha = self.multiplier_ewma_alpha
        current = self._multiplier_estimates[variant_name]
        self._multiplier_estimates[variant_name] = alpha * observed_factor + (1 - alpha) * current

    def multiplier_estimate(self, variant_name: str) -> float:
        return self._multiplier_estimates[variant_name]

    def multiplier_estimates(self) -> Dict[str, float]:
        """Snapshot of all per-variant multiplicative-factor estimates."""
        return dict(self._multiplier_estimates)

    # -- plans ----------------------------------------------------------------
    def set_plan(self, plan) -> None:
        self.current_plan = plan

    def set_routing(self, routing) -> None:
        self.current_routing = routing
