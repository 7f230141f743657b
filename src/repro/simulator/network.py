"""Intra-cluster network model.

Section 4.2: all servers sit in the same cluster, so the communication latency
between any pair of servers is assumed homogeneous.  The model here is a
constant per-hop latency with optional bounded jitter (the jitter is what
produces the small prototype-vs-simulator differences the paper reports).
:meth:`NetworkModel.sample_delay_s` is the one home of a hop's delay: the
Frontend, the workers' sink and fan-out loops and the resilience layer all
call it, one uniform per hop when there is jitter and none otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro.core.draws import Draws

__all__ = ["NetworkModel"]


class NetworkModel:
    """Homogeneous per-hop communication latency."""

    def __init__(self, latency_ms: float = 2.0, jitter_ms: float = 0.0):
        if latency_ms < 0 or jitter_ms < 0:
            raise ValueError("latency and jitter must be non-negative")
        self.latency_ms = float(latency_ms)
        self.jitter_ms = float(jitter_ms)
        #: precomputed linear transform so the scalar hot path draws with
        #: ``rng.random()`` (no Generator.uniform broadcasting overhead);
        #: ``low + span * random()`` is bit-identical to
        #: ``rng.uniform(-jitter, jitter)`` and consumes the same one uniform,
        #: keeping simulations byte-identical with previous releases
        self._jitter_low = -self.jitter_ms
        self._jitter_span = self.jitter_ms - self._jitter_low
        #: transient multiplier on every hop, driven by ``network_delay_spike``
        #: chaos faults; 1.0 (the default) takes guarded fast paths that leave
        #: every sampled value bit-identical to a spike-free build
        self.delay_scale = 1.0

    def sample_delay_s(self, rng: Optional[Draws] = None) -> float:
        """One hop's communication latency in seconds: the latency plus one
        uniform jitter draw, floored at zero and scaled by any delay spike."""
        scale = self.delay_scale
        if self.jitter_ms <= 0 or rng is None:
            if scale != 1.0:
                return self.latency_ms * scale / 1000.0
            return self.latency_ms / 1000.0
        value = self.latency_ms + (self._jitter_low + self._jitter_span * rng.random())
        value = value if value > 0.0 else 0.0
        if scale != 1.0:
            value *= scale
        return value / 1000.0
