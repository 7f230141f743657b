"""Arrival processes: turn a per-second rate trace into individual arrival times.

Two APIs coexist:

* :func:`arrivals_for_second` -- the original one-second sampler (Poisson or
  deterministic evenly-spaced), kept for callers that drive the simulator a
  second at a time.
* :class:`ArrivalProcess` subclasses + :func:`make_arrival_process` -- the
  scenario substrate's API.  A process samples *the whole trace* in a few
  vectorized NumPy draws (:meth:`ArrivalProcess.sample_trace`), which is what
  lets the simulator walk every arrival with one calendar entry instead of
  scheduling closures second by second.  Beyond Poisson and evenly-spaced,
  this adds the bursty processes the scenario registry composes: a two-state
  MMPP, diurnal modulation and a flash-crowd spike.

Modulated processes (``mmpp``, ``diurnal``, ``flash_crowd``) reshape the
per-second rate vector and then draw a Poisson process at the modulated rate
(a doubly-stochastic Poisson process), so the *mean* demand follows the trace
while the short-term structure becomes bursty.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Type

import numpy as np

from repro.workloads.traces import Trace

__all__ = [
    "arrivals_for_second",
    "arrivals_from_trace",
    "ArrivalProcess",
    "PoissonProcess",
    "UniformProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "ARRIVAL_PROCESSES",
    "make_arrival_process",
]


def arrivals_for_second(
    rate_qps: float,
    second_start_s: float,
    rng: np.random.Generator,
    process: str = "poisson",
) -> np.ndarray:
    """Arrival times within ``[second_start_s, second_start_s + 1)``.

    ``process`` selects between a Poisson process (the count is Poisson
    distributed and arrivals are uniform within the second) and a
    deterministic evenly-spaced process (useful for the simulator-validation
    experiment, where removing arrival randomness isolates control-plane
    differences).
    """
    if rate_qps < 0:
        raise ValueError("rate cannot be negative")
    if rate_qps == 0:
        return np.empty(0)
    if process == "poisson":
        count = int(rng.poisson(rate_qps))
        if count == 0:
            return np.empty(0)
        offsets = np.sort(rng.uniform(0.0, 1.0, size=count))
    elif process == "uniform":
        count = int(round(rate_qps))
        if count == 0:
            return np.empty(0)
        offsets = (np.arange(count) + 0.5) / count
    else:
        raise ValueError(f"unknown arrival process {process!r}")
    return second_start_s + offsets


def arrivals_from_trace(
    trace: Trace,
    rng: np.random.Generator,
    process: str = "poisson",
) -> Iterator[np.ndarray]:
    """Yield the arrival times of each trace second in order."""
    for second, rate in enumerate(trace.qps):
        yield arrivals_for_second(float(rate), float(second), rng, process=process)


# --------------------------------------------------------------------------- #
# Vectorized whole-trace arrival processes
# --------------------------------------------------------------------------- #


def _poisson_times(rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival times of a piecewise-constant-rate Poisson process.

    One ``rng.poisson`` draw for every second's count, one ``rng.uniform``
    draw for every offset, one sort -- regardless of trace length.
    """
    counts = rng.poisson(rates)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    seconds = np.repeat(np.arange(rates.shape[0], dtype=float), counts)
    times = seconds + rng.uniform(0.0, 1.0, size=total)
    times.sort()
    return times


class ArrivalProcess:
    """Base class: modulate the rate vector, then draw a Poisson process."""

    name = "base"

    def modulated_rates(self, rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Hook: reshape the per-second rate vector (identity by default)."""
        return rates

    def sample_trace(self, qps, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times for the whole trace (vectorized)."""
        rates = np.asarray(qps, dtype=float)
        if rates.ndim != 1:
            raise ValueError("qps must be a 1-D per-second rate vector")
        if np.any(rates < 0):
            raise ValueError("rate cannot be negative")
        return _poisson_times(self.modulated_rates(rates, rng), rng)

    def __repr__(self):  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class PoissonProcess(ArrivalProcess):
    """Homogeneous-within-each-second Poisson process at the trace rate."""

    name = "poisson"


class UniformProcess(ArrivalProcess):
    """Deterministic evenly-spaced arrivals (validation runs)."""

    name = "uniform"

    def sample_trace(self, qps, rng: np.random.Generator) -> np.ndarray:
        rates = np.asarray(qps, dtype=float)
        if np.any(rates < 0):
            raise ValueError("rate cannot be negative")
        chunks = []
        for second, rate in enumerate(rates):
            count = int(round(float(rate)))
            if count:
                chunks.append(second + (np.arange(count) + 0.5) / count)
        return np.concatenate(chunks) if chunks else np.empty(0)


class MMPPProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The modulating chain switches between a *quiet* and a *burst* state once
    per second; the trace rate is multiplied by the state's intensity.  The
    intensities are normalised so the stationary mean multiplier is 1, i.e.
    the process is burstier than Poisson but follows the same average demand.
    """

    name = "mmpp"

    def __init__(self, burst_intensity: float = 3.0, p_enter_burst: float = 0.1, p_exit_burst: float = 0.3):
        if burst_intensity <= 1.0:
            raise ValueError("burst_intensity must exceed 1")
        if not (0.0 < p_enter_burst < 1.0 and 0.0 < p_exit_burst < 1.0):
            raise ValueError("switching probabilities must be in (0, 1)")
        self.p_enter_burst = float(p_enter_burst)
        self.p_exit_burst = float(p_exit_burst)
        # Stationary burst-state probability of the 2-state chain.
        pi_burst = p_enter_burst / (p_enter_burst + p_exit_burst)
        # Solve quiet intensity so pi_quiet*quiet + pi_burst*burst == 1.
        self.burst_intensity = float(burst_intensity)
        self.quiet_intensity = (1.0 - pi_burst * burst_intensity) / (1.0 - pi_burst)
        if self.quiet_intensity <= 0:
            raise ValueError("burst_intensity too large for the given switching probabilities")

    def modulated_rates(self, rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = rates.shape[0]
        switches = rng.uniform(0.0, 1.0, size=n)
        multipliers = np.empty(n)
        burst = False
        for i in range(n):
            if burst:
                if switches[i] < self.p_exit_burst:
                    burst = False
            else:
                if switches[i] < self.p_enter_burst:
                    burst = True
            multipliers[i] = self.burst_intensity if burst else self.quiet_intensity
        return rates * multipliers


class DiurnalProcess(ArrivalProcess):
    """Sinusoidal day/night modulation on top of the trace rate."""

    name = "diurnal"

    def __init__(self, amplitude: float = 0.5, period_s: float = 60.0, phase: float = 0.0):
        if not (0.0 <= amplitude < 1.0):
            raise ValueError("amplitude must be in [0, 1)")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self.phase = float(phase)

    def modulated_rates(self, rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        t = np.arange(rates.shape[0], dtype=float)
        wave = 1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_s + self.phase)
        return rates * wave


class FlashCrowdProcess(ArrivalProcess):
    """A sudden demand spike (flash crowd) superimposed on the trace.

    The spike multiplies the rate by ``magnitude`` for ``spike_duration_s``
    seconds starting at ``spike_at_s`` (trace midpoint when ``None``), with a
    linear one-second ramp on each side.
    """

    name = "flash_crowd"

    def __init__(self, magnitude: float = 4.0, spike_at_s: Optional[float] = None, spike_duration_s: float = 5.0):
        if magnitude <= 1.0:
            raise ValueError("magnitude must exceed 1")
        if spike_duration_s <= 0:
            raise ValueError("spike duration must be positive")
        self.magnitude = float(magnitude)
        self.spike_at_s = spike_at_s
        self.spike_duration_s = float(spike_duration_s)

    def modulated_rates(self, rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = rates.shape[0]
        start = self.spike_at_s if self.spike_at_s is not None else (n - self.spike_duration_s) / 2.0
        start = max(0.0, float(start))
        end = min(float(n), start + self.spike_duration_s)
        t = np.arange(n, dtype=float)
        ramp_up = np.clip(t - (start - 1.0), 0.0, 1.0)
        ramp_down = np.clip(end - t, 0.0, 1.0)
        profile = np.minimum(ramp_up, ramp_down)
        return rates * (1.0 + (self.magnitude - 1.0) * profile)


ARRIVAL_PROCESSES: Dict[str, Type[ArrivalProcess]] = {
    PoissonProcess.name: PoissonProcess,
    UniformProcess.name: UniformProcess,
    MMPPProcess.name: MMPPProcess,
    DiurnalProcess.name: DiurnalProcess,
    FlashCrowdProcess.name: FlashCrowdProcess,
}


def make_arrival_process(name: str, **params) -> ArrivalProcess:
    """Instantiate an arrival process by registry name."""
    if name not in ARRIVAL_PROCESSES:
        raise ValueError(f"unknown arrival process {name!r}; available: {sorted(ARRIVAL_PROCESSES)}")
    return ARRIVAL_PROCESSES[name](**params)
