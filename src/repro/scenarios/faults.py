"""Fault injection: scripted and stochastic disturbances applied to a run.

Three classes of fault exist:

* **Trace faults** reshape the demand trace before the simulation is built
  (``demand_surge``: the incoming rate is multiplied over a window -- a
  mid-run demand shock the control plane has to absorb).
* **Scripted runtime faults** schedule events into the simulation calendar
  (``worker_failure``: physical workers hard-fail at a given time, losing
  their queues and in-flight batches, and recover after ``duration_s``;
  routed queries are dropped until the control plane's next plans re-pack the
  shrunken fleet -- or re-routed, when the scenario enables the resilience
  layer in :mod:`repro.simulator.resilience`).
* **Chaos faults** are *generated* fault processes, pre-drawn at schedule
  time from a private RNG keyed on the scenario seed so sweeps stay
  bit-reproducible:

  - ``crash_restart``: ``count`` independent crash/repair processes with
    exponential MTTF/MTTR over the fault window;
  - ``worker_slowdown``: ``count`` workers run ``magnitude``× slower over the
    window (straggler injection);
  - ``network_delay_spike``: every network hop is ``magnitude``× slower over
    the window.

Every injected fault and recovery is counted in ``repro.telemetry``
(``faults.injected`` / ``faults.recovered`` / ``faults.slowdowns`` /
``faults.network_spikes``) and appended to the ``faults.timeline`` timeline,
which :class:`~repro.simulator.metrics.SimulationSummary` surfaces as
``fault_timeline`` so tests and policies can see exactly what happened when.

Faults are plain dataclasses so scenario specs stay picklable for the
process-parallel sweep runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.workloads.traces import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.runner import ServingSimulation

__all__ = [
    "FaultSpec",
    "apply_trace_faults",
    "schedule_runtime_faults",
    "validate_fault_schedule",
    "FAULT_KINDS",
]

FAULT_KINDS = (
    "worker_failure",
    "demand_surge",
    "crash_restart",
    "worker_slowdown",
    "network_delay_spike",
)

#: fault kinds that hard-fail workers (and therefore consume fleet capacity
#: concurrently -- see :func:`validate_fault_schedule`)
_FAILING_KINDS = ("worker_failure", "crash_restart")

_CHAOS_SALT = 0xC4A05  # keeps chaos draws off every other seeded stream


@dataclass(frozen=True)
class FaultSpec:
    """One scripted or generated disturbance.

    ``kind``:
      * ``"worker_failure"`` -- ``count`` workers hard-fail at ``at_s`` and
        recover at ``at_s + duration_s`` (``duration_s <= 0``: no recovery).
      * ``"demand_surge"`` -- the trace rate is multiplied by ``magnitude``
        over ``[at_s, at_s + duration_s)``.
      * ``"crash_restart"`` -- ``count`` independent stochastic crash/repair
        processes over ``[at_s, at_s + duration_s)``: times to failure are
        Exponential(``mttf_s``), repair times Exponential(``mttr_s``), drawn
        from a generator keyed on the scenario seed (bit-reproducible).
      * ``"worker_slowdown"`` -- ``count`` workers execute ``magnitude``×
        slower over the window (straggler injection).
      * ``"network_delay_spike"`` -- every network hop is ``magnitude``×
        slower over the window.
    """

    kind: str
    at_s: float
    duration_s: float = 10.0
    count: int = 1
    magnitude: float = 2.0
    mttf_s: float = 30.0
    mttr_s: float = 5.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}")
        if self.at_s < 0:
            raise ValueError("fault time cannot be negative")
        if self.kind in ("worker_failure", "crash_restart", "worker_slowdown") and self.count < 1:
            raise ValueError(f"{self.kind} needs count >= 1")
        if self.kind == "demand_surge" and self.magnitude <= 0:
            raise ValueError("demand_surge needs a positive magnitude")
        if self.kind == "crash_restart":
            if self.duration_s <= 0:
                raise ValueError("crash_restart needs a positive window (duration_s > 0)")
            if self.mttf_s <= 0 or self.mttr_s <= 0:
                raise ValueError("crash_restart needs positive mttf_s and mttr_s")
        if self.kind == "worker_slowdown":
            if self.duration_s <= 0:
                raise ValueError("worker_slowdown needs a positive window (duration_s > 0)")
            if self.magnitude < 1.0:
                raise ValueError("worker_slowdown magnitude is a slowdown factor; needs >= 1.0")
        if self.kind == "network_delay_spike":
            if self.duration_s <= 0:
                raise ValueError("network_delay_spike needs a positive window (duration_s > 0)")
            if self.magnitude <= 0:
                raise ValueError("network_delay_spike needs a positive magnitude")


def apply_trace_faults(trace: Trace, faults: Sequence[FaultSpec]) -> Trace:
    """Apply all demand-shaping faults to the trace (no-op without any)."""
    surges = [f for f in faults if f.kind == "demand_surge"]
    if not surges:
        return trace
    qps = np.array(trace.qps, dtype=float, copy=True)
    for fault in surges:
        start = int(fault.at_s)
        end = min(trace.duration_s, int(np.ceil(fault.at_s + fault.duration_s)))
        qps[start:end] *= fault.magnitude
    return Trace(f"{trace.name}+surge", qps)


def validate_fault_schedule(faults: Sequence[FaultSpec], num_workers: int) -> None:
    """Reject schedules that demand more concurrently failed workers than exist.

    Sweeps the ``worker_failure``/``crash_restart`` windows (``duration_s <= 0``
    means the failure never recovers) and raises :class:`ValueError` as soon as
    the worst-case concurrent victim count exceeds the fleet size -- a clear
    schedule-time error instead of a silent mid-run under-delivery where
    ``_fail_workers`` runs out of candidates.
    """
    events: List[Tuple[float, int]] = []
    for fault in faults:
        if fault.kind not in _FAILING_KINDS:
            continue
        end = fault.at_s + fault.duration_s if fault.duration_s > 0 else math.inf
        events.append((fault.at_s, fault.count))
        if end != math.inf:
            events.append((end, -fault.count))
    if not events:
        return
    # Ends sort before starts at the same instant: a recovery at t frees
    # capacity for a failure at t (FIFO event order runs the earlier-scheduled
    # recovery first).
    events.sort(key=lambda item: (item[0], item[1]))
    concurrent = 0
    for time_s, delta in events:
        concurrent += delta
        if concurrent > num_workers:
            raise ValueError(
                f"fault schedule demands up to {concurrent} concurrently failed "
                f"workers at t={time_s:g}s but the cluster only has {num_workers}; "
                "shrink the overlapping worker_failure/crash_restart windows"
            )


def _fail_workers(sim: "ServingSimulation", count: int) -> list:
    """Fail ``count`` workers, preferring currently active ones (deterministic order)."""
    cluster = sim.cluster
    candidates = [w for w in cluster.workers if w.active and not w.failed]
    candidates += [w for w in cluster.workers if not w.active and not w.failed]
    victims = candidates[:count]
    for worker in victims:
        cluster.fail_worker(worker.physical_id)
    return victims


def _rehost(sim: "ServingSimulation") -> None:
    """Re-apply the current plan so unhosted logical workers find new homes.

    The control plane only publishes a new plan when demand moves, so after a
    failure (fail over onto spare workers, paying their model-load time) and
    after a recovery (re-host what is still unhosted) the fleet mapping must
    be refreshed explicitly.
    """
    if sim.current_plan is not None:
        sim._apply_plan(sim.current_plan)


def _timeline(sim: "ServingSimulation"):
    return sim.telemetry.timeline("faults.timeline")


def _recover_guarded(sim: "ServingSimulation", ids: Sequence[Tuple[str, int]]) -> None:
    """Recover ``(physical_id, fail_epoch)`` victims, skipping stale entries.

    A recovery closure can outlive its failure: an overlapping fault (or a
    chaos crash/repair process) may have already recovered the worker and
    failed it again by the time this fires.  Comparing the epoch recorded at
    failure time against the worker's current ``fail_epoch`` guarantees a
    recovery only ever undoes *its own* failure -- never a later one -- and
    the plan is only re-applied when something actually recovered.
    """
    cluster = sim.cluster
    recovered = 0
    now = sim.engine.now_s
    for pid, epoch in ids:
        worker = next(w for w in cluster.workers if w.physical_id == pid)
        if not worker.failed or worker.fail_epoch != epoch:
            continue
        cluster.recover_worker(pid)
        recovered += 1
        _timeline(sim).record(now, f"recover:{pid}")
    if recovered:
        sim.telemetry.counter("faults.recovered").value += recovered
        _rehost(sim)


def _schedule_worker_failure(sim: "ServingSimulation", fault: FaultSpec) -> None:
    def fail(f: FaultSpec = fault) -> None:
        victims = _fail_workers(sim, f.count)
        now = sim.engine.now_s
        if victims:
            sim.telemetry.counter("faults.injected").value += len(victims)
            timeline = _timeline(sim)
            for worker in victims:
                timeline.record(now, f"fail:{worker.physical_id}")
        _rehost(sim)
        if f.duration_s > 0 and victims:
            ids = [(w.physical_id, w.fail_epoch) for w in victims]
            sim.engine.schedule(now + f.duration_s, lambda: _recover_guarded(sim, ids))

    sim.engine.schedule(fault.at_s, fail)


def _schedule_crash_restart(sim: "ServingSimulation", fault: FaultSpec, index: int) -> None:
    """Pre-draw one crash/repair episode list per process and schedule it.

    All randomness is consumed here, at schedule time, from a generator keyed
    on ``(seed, salt, fault_index, process)`` -- the simulation's workload RNG
    never sees a chaos draw, and the same seed always produces the same
    fault timeline.
    """
    window_end = fault.at_s + fault.duration_s
    for proc in range(fault.count):
        rng = np.random.default_rng((int(sim.config.seed), _CHAOS_SALT, index, proc))
        t = fault.at_s
        while True:
            t += float(rng.exponential(fault.mttf_s))
            if t >= window_end:
                break
            repair_at = t + float(rng.exponential(fault.mttr_s))

            def crash(repair_at: float = repair_at) -> None:
                victims = _fail_workers(sim, 1)
                if not victims:
                    return  # whole fleet already down; skip this episode
                now = sim.engine.now_s
                sim.telemetry.counter("faults.injected").value += 1
                _timeline(sim).record(now, f"crash:{victims[0].physical_id}")
                _rehost(sim)
                ids = [(victims[0].physical_id, victims[0].fail_epoch)]
                sim.engine.schedule(repair_at, lambda: _recover_guarded(sim, ids))

            sim.engine.schedule(t, crash)
            t = repair_at


def _schedule_worker_slowdown(sim: "ServingSimulation", fault: FaultSpec) -> None:
    def start(f: FaultSpec = fault) -> None:
        cluster = sim.cluster
        candidates = [w for w in cluster.workers if w.active and not w.failed]
        candidates += [w for w in cluster.workers if not w.active and not w.failed]
        victims = candidates[: f.count]
        if not victims:
            return
        now = sim.engine.now_s
        timeline = _timeline(sim)
        sim.telemetry.counter("faults.slowdowns").value += len(victims)
        for worker in victims:
            worker.slowdown = f.magnitude
            timeline.record(now, f"slowdown:{worker.physical_id}:x{f.magnitude:g}")
        pids = [w.physical_id for w in victims]

        def stop() -> None:
            end = sim.engine.now_s
            for pid in pids:
                worker = next(w for w in cluster.workers if w.physical_id == pid)
                worker.slowdown = 1.0
                timeline.record(end, f"slowdown-end:{pid}")

        sim.engine.schedule(now + f.duration_s, stop)

    sim.engine.schedule(fault.at_s, start)


def _schedule_network_spike(sim: "ServingSimulation", fault: FaultSpec) -> None:
    def start(f: FaultSpec = fault) -> None:
        now = sim.engine.now_s
        sim.network.delay_scale = f.magnitude
        sim.telemetry.counter("faults.network_spikes").value += 1
        _timeline(sim).record(now, f"net-spike:x{f.magnitude:g}")

        def stop() -> None:
            sim.network.delay_scale = 1.0
            _timeline(sim).record(sim.engine.now_s, "net-spike-end")

        sim.engine.schedule(now + f.duration_s, stop)

    sim.engine.schedule(fault.at_s, start)


def schedule_runtime_faults(sim: "ServingSimulation", faults: Sequence[FaultSpec]) -> None:
    """Schedule every runtime fault of the scenario into the simulation calendar."""
    if not faults:
        return
    validate_fault_schedule(faults, sim.cluster.num_workers)
    for index, fault in enumerate(faults):
        if fault.kind == "worker_failure":
            _schedule_worker_failure(sim, fault)
        elif fault.kind == "crash_restart":
            _schedule_crash_restart(sim, fault, index)
        elif fault.kind == "worker_slowdown":
            _schedule_worker_slowdown(sim, fault)
        elif fault.kind == "network_delay_spike":
            _schedule_network_spike(sim, fault)
