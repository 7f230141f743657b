"""The arrival cursor: one calendar entry walks every client arrival of a run.

:class:`~repro.simulator.events.ArrivalCursor` reserves one sequence number
per arrival when the run loads its workload, so each arrival keeps the
``(time, sequence)`` position a preloaded per-arrival event would have had:
after everything scheduled before the load (the preloaded control ticks),
before everything scheduled after it (deliveries, batch completions, ad-hoc
callbacks).  These tests pin that contract on the runner and on the engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig
from repro.scenarios import get_scenario
from repro.simulator import ServingSimulation, SimulationConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import ArrivalCursor
from repro.simulator.frontend import Frontend
from repro.workloads import constant_trace
from repro.workloads.arrivals import ArrivalProcess


class FixedArrivals(ArrivalProcess):
    """Arrivals at exactly the given times, whatever the trace says."""

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float)

    def sample_trace(self, qps, rng):
        return self.times.copy()


def make_simulation(small_pipeline, times, duration_s=3):
    controller = Controller(
        small_pipeline,
        ControllerConfig(num_workers=4, latency_slo_ms=150.0, demand_quantum_qps=10.0, utilization_target=0.75),
    )
    return ServingSimulation(
        small_pipeline,
        controller,
        constant_trace(10.0, duration_s),
        SimulationConfig(num_workers=4, latency_slo_ms=150.0, seed=3),
        arrival_process=FixedArrivals(times),
    )


@pytest.fixture
def record_order(monkeypatch):
    """``record(sim, log)`` logs every arrival and control tick of ``sim`` as ``(kind, time)``."""

    def record(sim, log):
        submit, tick = Frontend.submit, ServingSimulation._control_tick

        def logged_submit(frontend):
            log.append(("arrival", frontend.sim.engine.now_s))
            return submit(frontend)

        def logged_tick(simulation):
            log.append(("tick", simulation.engine.now_s))
            tick(simulation)

        monkeypatch.setattr(Frontend, "submit", logged_submit)
        # The calendar's tick entries call the class's function with the sim
        # as their argument, so the recorder patches the class.
        monkeypatch.setattr(ServingSimulation, "_control_tick", logged_tick)

    return record


class TestRunnerOrder:
    def test_preloaded_control_tick_runs_before_an_arrival_at_its_time(self, small_pipeline, record_order):
        tick_s = 1.0 - 1e-6  # the first control tick's exact time
        sim = make_simulation(small_pipeline, [0.5, tick_s, 1.5])
        log = []
        record_order(sim, log)
        sim.run()
        assert [entry for entry in log if entry[1] < 1.6] == [
            ("arrival", 0.5),
            ("tick", tick_s),
            ("arrival", tick_s),
            ("arrival", 1.5),
        ]

    def test_event_scheduled_mid_run_at_an_arrival_time_runs_after_it(self, small_pipeline, record_order):
        sim = make_simulation(small_pipeline, [0.25, 0.5, 0.75])
        log = []
        record_order(sim, log)
        sim._bootstrap()
        sim._schedule_workload()
        engine = sim.engine

        def schedule_at_arrival():
            log.append(("scheduler", engine.now_s))
            engine.schedule(0.5, lambda: log.append(("mid-run", engine.now_s)))

        engine.schedule(0.1, schedule_at_arrival)
        engine.run(until_s=0.8)
        assert [entry for entry in log if entry[0] != "tick"] == [
            ("scheduler", 0.1),
            ("arrival", 0.25),
            ("arrival", 0.5),
            ("mid-run", 0.5),
            ("arrival", 0.75),
        ]

    def test_calendar_holds_one_arrival_entry(self, small_pipeline):
        sim = make_simulation(small_pipeline, np.linspace(0.1, 2.9, 50))
        sim._bootstrap()
        sim._schedule_workload()
        heap = sim.engine.queue._heap
        assert sum(isinstance(entry[3], ArrivalCursor) for entry in heap) == 1
        sim.engine.run(until_s=1.5)
        assert sum(isinstance(entry[3], ArrivalCursor) for entry in heap) == 1
        assert len(sim.engine.queue) == len(heap)

    def test_trace_with_zero_arrivals_runs(self, small_pipeline, record_order):
        sim = make_simulation(small_pipeline, [])
        log = []
        record_order(sim, log)
        summary = sim.run()
        assert summary.total_requests == 0
        assert sim.frontend.total_submitted == 0
        assert log == [("tick", second + 1 - 1e-6) for second in range(3)]
        assert sim.engine.now_s == sim.trace.duration_s + sim.config.drain_s


def run_in_slices(sim, max_events):
    """``ServingSimulation.run`` with the engine resumed every ``max_events`` events."""
    sim._bootstrap()
    sim._schedule_workload()
    horizon = sim.trace.duration_s + sim.config.drain_s
    while True:
        before = sim.engine.events_processed
        sim.engine.run(until_s=horizon, max_events=max_events)
        if sim.engine.events_processed - before < max_events:
            break
    summary = sim.metrics.summary()
    summary.telemetry = sim.telemetry.snapshot()
    return summary


@pytest.mark.parametrize("max_events", [1, 97])
def test_resumed_runs_match_one_run(max_events):
    spec = get_scenario("smoke")
    whole = spec.build(seed=2)
    expected = whole.run()
    sliced = spec.build(seed=2)
    assert dataclasses.asdict(run_in_slices(sliced, max_events)) == dataclasses.asdict(expected)
    assert sliced.engine.events_processed == whole.engine.events_processed
    assert sliced.engine.now_s == whole.engine.now_s


class RecordingFrontend:
    def __init__(self, engine, log):
        self.engine = engine
        self.log = log

    def submit(self):
        self.log.append(("arrival", self.engine.now_s))


class TestEngineContract:
    def test_sequence_numbers_are_reserved_at_load(self):
        engine = SimulationEngine()
        log = []
        engine.preload([(2.0, log.append, ("preloaded", 2.0))])
        ArrivalCursor([1.0, 2.0, 2.0, 3.0], RecordingFrontend(engine, log)).load(engine.queue)
        engine.schedule(2.0, lambda: log.append(("later", 2.0)))
        assert len(engine.queue) == 3
        engine.run()
        assert log == [
            ("arrival", 1.0),
            ("preloaded", 2.0),
            ("arrival", 2.0),
            ("arrival", 2.0),
            ("later", 2.0),
            ("arrival", 3.0),
        ]
        assert engine.events_processed == 6
        assert len(engine.queue) == 0

    def test_step_walks_the_cursor(self):
        engine = SimulationEngine()
        log = []
        ArrivalCursor([0.5, 1.5], RecordingFrontend(engine, log)).load(engine.queue)
        assert engine.step() and engine.step()
        assert not engine.step()
        assert log == [("arrival", 0.5), ("arrival", 1.5)]
        assert engine.events_processed == 2

    def test_arrivals_past_the_horizon_stay_pending(self):
        engine = SimulationEngine()
        log = []
        ArrivalCursor([0.5, 1.5, 2.5], RecordingFrontend(engine, log)).load(engine.queue)
        engine.run(until_s=1.0)
        assert log == [("arrival", 0.5)]
        assert len(engine.queue) == 1
        engine.run()
        assert [t for _, t in log] == [0.5, 1.5, 2.5]

    def test_negative_time_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            ArrivalCursor([-1.0, 0.5], RecordingFrontend(engine, [])).load(engine.queue)
        assert len(engine.queue) == 0

    def test_empty_cursor_loads_nothing(self):
        engine = SimulationEngine()
        ArrivalCursor([], RecordingFrontend(engine, [])).load(engine.queue)
        assert len(engine.queue) == 0
        assert engine.queue._seq == 0
