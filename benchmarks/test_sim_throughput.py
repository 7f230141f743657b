"""Simulator throughput benchmark: events/second of the event engine.

Tracks the simulator the way ``test_ablation_solver_backends.py`` tracks the
solver: one dispatch ablation against a faithful replica of the seed engine,
plus the absolute events/sec and wall clock of a registered reference
scenario (so future PRs can see regressions in the full
pipeline, not just the raw event loop).  Every tracked number is also merged
into the machine-readable perf record (``BENCH_throughput.json``, see
``benchmarks/perf_record.py``) which CI uploads as an artifact.

The seed engine scheduled one ``lambda`` closure per event into a heap of
``@dataclass(order=True)`` events (Python-level ``__lt__`` per comparison)
and walked the calendar with a peek+pop pair per event.  The replica below
reproduces that design exactly.  The current engine uses ``__slots__`` typed
events in a ``(time, seq, event)`` tuple heap (C-speed comparisons), bulk
heapify preloading for the vectorized arrival path, and an inlined mid-run
scheduling path -- the ablation asserts the >= 3x dispatch speedup the
scenario substrate was built for.
"""

import heapq
import itertools
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np
import pytest

from benchmarks import perf_record
from repro.scenarios import get_scenario
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import ArrivalEvent, BatchCompleteEvent, DeliveryEvent

pytestmark = pytest.mark.bench


# --------------------------------------------------------------------------- #
# Seed-engine replica (closure-per-event, dataclass heap)
# --------------------------------------------------------------------------- #


@dataclass(order=True)
class _SeedEvent:
    time_s: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class _SeedEventQueue:
    def __init__(self):
        self._heap = []
        self._counter = itertools.count()

    def schedule(self, time_s, action):
        if time_s < 0:
            raise ValueError("cannot schedule an event at negative time")
        event = _SeedEvent(time_s=time_s, sequence=next(self._counter), action=action)
        heapq.heappush(self._heap, event)
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time_s if self._heap else None


class _SeedEngine:
    def __init__(self):
        self.queue = _SeedEventQueue()
        self.now_s = 0.0
        self.events_processed = 0

    def schedule(self, time_s, action):
        if time_s < self.now_s - 1e-12:
            raise ValueError
        return self.queue.schedule(max(time_s, self.now_s), action)

    def schedule_in(self, delay_s, action):
        if delay_s < 0:
            raise ValueError
        return self.schedule(self.now_s + delay_s, action)

    def run(self, until_s=None):
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until_s is not None and next_time > until_s:
                self.now_s = until_s
                break
            event = self.queue.pop()
            self.now_s = event.time_s
            event.action()
            self.events_processed += 1
        return self.now_s


# --------------------------------------------------------------------------- #
# Dispatch workload: the two-task pipeline's event skeleton.  Each client
# query produces five events -- arrival, network delivery to the first task,
# its batch completion, delivery to the second task, its batch completion --
# of which four are scheduled mid-run, exactly as in a real simulation.  The
# seed side replays the seed runner verbatim: per-query closure scheduling
# over the NumPy arrival array (including the per-arrival float() conversion
# it paid), a fresh lambda per hop.  The typed side replays the current
# runner: one vectorized .tolist(), bulk-preloaded ArrivalEvents, __slots__
# Delivery/BatchComplete events mid-run.
# --------------------------------------------------------------------------- #

_NUM_ARRIVALS = 20_000
_EVENTS_PER_ARRIVAL = 5
_ROUNDS = 7


def _arrival_times():
    return np.sort(np.random.default_rng(0).uniform(0.0, 100.0, _NUM_ARRIVALS))


class _SeedHarness:
    """Seed style: every hop schedules a fresh lambda closure."""

    def __init__(self, engine):
        self.engine = engine
        self.completed = 0

    def submit(self):
        self.engine.schedule_in(0.002, lambda: self.deliver_first())

    def deliver_first(self):
        self.engine.schedule_in(0.030, lambda: self.complete_first())

    def complete_first(self):
        self.engine.schedule_in(0.002, lambda: self.deliver_second())

    def deliver_second(self):
        self.engine.schedule_in(0.020, lambda: self.complete_second())

    def complete_second(self):
        self.completed += 1


class _TypedWorker:
    __slots__ = ("engine", "next_worker", "batch_ms", "completed")

    def __init__(self, engine, next_worker, batch_ms):
        self.engine = engine
        self.next_worker = next_worker
        self.batch_ms = batch_ms
        self.completed = 0

    def enqueue(self, query):  # DeliveryEvent.run target
        engine = self.engine
        engine.schedule_event(BatchCompleteEvent(engine.now_s + self.batch_ms, self, None))

    def _complete_batch(self, batch):  # BatchCompleteEvent.run target
        engine = self.engine
        if self.next_worker is not None:
            engine.schedule_event(DeliveryEvent(engine.now_s + 0.002, self.next_worker, None))
        else:
            self.completed += 1


class _TypedFrontend:
    __slots__ = ("engine", "worker")

    def __init__(self, engine, worker):
        self.engine = engine
        self.worker = worker

    def submit(self):  # ArrivalEvent.run target
        engine = self.engine
        engine.schedule_event(DeliveryEvent(engine.now_s + 0.002, self.worker, None))


def _run_seed_engine(times, clock=time.perf_counter):
    engine = _SeedEngine()
    harness = _SeedHarness(engine)
    start = clock()
    for arrival in times:  # seed runner: iterate the ndarray, float() each
        engine.schedule(float(arrival), harness.submit)
    engine.run()
    elapsed = clock() - start
    assert harness.completed == _NUM_ARRIVALS
    return engine.events_processed, elapsed


def _run_typed_engine(times, clock=time.perf_counter):
    engine = SimulationEngine()
    second = _TypedWorker(engine, None, 0.020)
    first = _TypedWorker(engine, second, 0.030)
    frontend = _TypedFrontend(engine, first)
    start = clock()
    engine.preload(list(map(ArrivalEvent, times.tolist(), repeat(frontend))))
    engine.run()
    elapsed = clock() - start
    assert second.completed == _NUM_ARRIVALS
    return engine.events_processed, elapsed


@pytest.mark.slow
def test_typed_engine_dispatch_speedup_over_seed_engine():
    """The typed tuple-heap engine must dispatch >= 3x the seed engine's rate.

    Timing-ratio assertions are kept out of tier-1 (like the figure
    benchmarks) so scheduler noise cannot fail an unrelated run; ``pytest -m
    slow benchmarks/test_sim_throughput.py`` checks the bar explicitly.  CPU
    time (``process_time``) is compared and the per-round ratios are
    medianed: the two engines run back to back within each round, so noise
    bursts hit both sides of a ratio and outlier rounds are discarded.
    """
    times = _arrival_times()
    ratios = []
    seed_best = float("inf")
    typed_best = float("inf")
    events = None
    for _ in range(_ROUNDS):
        seed_events, seed_elapsed = _run_seed_engine(times, clock=time.process_time)
        typed_events, typed_elapsed = _run_typed_engine(times, clock=time.process_time)
        assert seed_events == typed_events == _EVENTS_PER_ARRIVAL * _NUM_ARRIVALS
        events = typed_events
        ratios.append(seed_elapsed / typed_elapsed)
        seed_best = min(seed_best, seed_elapsed)
        typed_best = min(typed_best, typed_elapsed)
    ratio = float(np.median(ratios))
    print(
        f"\nseed engine:  {events / seed_best:>10,.0f} events/s (best round)"
        f"\ntyped engine: {events / typed_best:>10,.0f} events/s (best round)"
        f"\nspeedup:      {ratio:.2f}x (median of {_ROUNDS} rounds)"
    )
    perf_record.update(
        "engine_dispatch",
        {
            "seed_events_per_s": events / seed_best,
            "typed_events_per_s": events / typed_best,
            "speedup": ratio,
        },
    )
    assert ratio >= 3.0, f"typed engine only {ratio:.2f}x over the seed engine (target >= 3x)"


def test_typed_engine_dispatch_rate(benchmark):
    """Absolute dispatch rate of the typed engine (pytest-benchmark record)."""
    times = _arrival_times()
    events, elapsed = benchmark.pedantic(lambda: _run_typed_engine(times), rounds=3, iterations=1)
    assert events == _EVENTS_PER_ARRIVAL * _NUM_ARRIVALS
    perf_record.update("engine_dispatch", {"typed_events_per_s_wall": events / elapsed})


# --------------------------------------------------------------------------- #
# Reference scenario: full simulation throughput (engine + workers + control)
# --------------------------------------------------------------------------- #


def _reference_scenario():
    # The smoke scenario's single-task pipeline at a demand high enough that
    # event dispatch (not the per-second MILP) dominates the wall clock.
    return get_scenario("smoke").with_overrides(
        name="reference_throughput",
        trace_params={"qps": 300.0, "duration_s": 20},
    )


def test_reference_scenario_throughput(benchmark):
    """Events/sec and wall clock of a full reference-scenario simulation."""
    spec = _reference_scenario()

    def run_once():
        simulation = spec.build(seed=0)
        start = time.perf_counter()
        simulation.run()
        return simulation.engine.events_processed, time.perf_counter() - start

    events, elapsed = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert events > 10_000
    print(f"\nreference scenario: {events} events in {elapsed:.3f}s -> {events / elapsed:,.0f} events/s")
    perf_record.update(
        "reference_scenario",
        {"events": events, "wall_s": elapsed, "events_per_s": events / elapsed},
    )


# --------------------------------------------------------------------------- #
# Profiling driver: python benchmarks/test_sim_throughput.py --profile ...
# --------------------------------------------------------------------------- #


def _profile_main(argv=None):
    """cProfile one full simulation and print the top-20 cumulative table.

    Keeps hot-path work evidence-driven: before optimising, run e.g.::

        PYTHONPATH=src:. python benchmarks/test_sim_throughput.py --qps 24000

    and read where the time actually goes.
    """
    import argparse
    import cProfile
    import pstats

    parser = argparse.ArgumentParser(description=_profile_main.__doc__)
    parser.add_argument("--qps", type=float, default=3000.0)
    parser.add_argument("--duration-s", type=int, default=15)
    parser.add_argument("--top", type=int, default=20, help="rows of the profile table")
    args = parser.parse_args(argv)

    spec = get_scenario("smoke").with_overrides(
        name="profile_target",
        trace_params={"qps": args.qps, "duration_s": args.duration_s},
    )
    simulation = spec.build(seed=0)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    simulation.run()
    profiler.disable()
    elapsed = time.perf_counter() - start
    events = simulation.engine.events_processed
    print(
        f"{spec.name}: qps={args.qps:g} "
        f"-> {events} events in {elapsed:.3f}s ({events / elapsed:,.0f} events/s)"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(args.top)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_profile_main())
