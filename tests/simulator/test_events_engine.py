"""Tests for the event calendar and simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import (
    ArrivalEvent,
    BatchCompleteEvent,
    CallbackEvent,
    DeliveryEvent,
    Event,
    EventQueue,
)


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("b"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(3.0, lambda: order.append("c"))
        while queue:
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: order.append(n))
        while queue:
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        queue.schedule(2.0, lambda: fired.append("y"))
        event.cancel()
        while queue:
            queue.pop().action()
        assert fired == ["y"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_len_and_peek(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(5.0, lambda: None)
        event = queue.schedule(1.0, lambda: None)
        assert len(queue) == 2
        assert queue.peek_time() == 1.0
        event.cancel()
        assert queue.peek_time() == 5.0
        assert len(queue) == 1

    def test_peek_time_detaches_discarded_cancelled_entries(self):
        """Regression: peek_time() drops cancelled heads from the heap, so it
        must also detach them exactly as pop() does — a handle kept around
        (flag manually reset, then re-cancelled) would otherwise decrement
        the live count for an entry that already left the heap."""
        queue = EventQueue()
        head = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        head.cancel()
        assert queue.peek_time() == 2.0
        assert head._queue is None  # discarded => detached
        head.cancelled = False  # hostile flag reset
        head.cancel()  # must be a no-op now
        assert len(queue) == 1
        assert queue.pop() is not None
        assert queue.pop() is None

    def test_cancel_after_execution_is_a_noop(self):
        """Cancelling an already-executed handle must not corrupt the live
        count (the seed dataclass implementation tolerated this too)."""
        queue = EventQueue()
        executed = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.pop().run()
        executed.cancel()
        assert len(queue) == 1
        assert bool(queue)
        assert queue.pop() is not None

    def test_cancel_after_engine_run_is_a_noop(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until_s=1.5)
        handle.cancel()
        assert len(engine.queue) == 1
        assert bool(engine.queue)

    def test_len_is_tracked_without_scanning(self):
        """The live count survives push/pop/cancel combinations exactly."""
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        events[3].cancel()
        events[7].cancel()
        events[7].cancel()  # double-cancel must not decrement twice
        assert len(queue) == 8
        popped = 0
        while queue.pop() is not None:
            popped += 1
        assert popped == 8
        assert len(queue) == 0
        assert not queue

    def test_bulk_extend_matches_individual_pushes(self):
        fired = []
        queue = EventQueue()
        queue.schedule(2.5, lambda: fired.append("mid"))
        queue.extend([CallbackEvent(float(t), lambda t=t: fired.append(t)) for t in (3, 1, 2)])
        while queue:
            queue.pop().run()
        assert fired == [1, 2, "mid", 3]

    def test_extend_rejects_negative_times(self):
        with pytest.raises(ValueError):
            EventQueue().extend([CallbackEvent(-1.0, lambda: None)])

    def test_extend_rollback_detaches_partial_batch(self):
        """A failed bulk load must not leave handles that can corrupt the
        live count through a later cancel()."""
        queue = EventQueue()
        kept = queue.schedule(1.0, lambda: None)
        rolled_back = CallbackEvent(2.0, lambda: None)
        with pytest.raises(ValueError):
            queue.extend([rolled_back, CallbackEvent(-1.0, lambda: None)])
        assert len(queue) == 1
        rolled_back.cancel()
        assert len(queue) == 1
        assert queue.pop() is kept

    def test_typed_event_dispatches_by_kind(self):
        class FakeFrontend:
            def __init__(self):
                self.submissions = 0

            def submit(self):
                self.submissions += 1

        frontend = FakeFrontend()
        queue = EventQueue()
        event = queue.push(ArrivalEvent(1.0, frontend))
        assert event.kind == "arrival"
        queue.pop().run()
        assert frontend.submissions == 1

    def test_base_event_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Event(1.0).run()


class TestSimulationEngine:
    def test_clock_advances_to_event_times(self):
        engine = SimulationEngine()
        times = []
        engine.schedule(0.5, lambda: times.append(engine.now_s))
        engine.schedule(1.5, lambda: times.append(engine.now_s))
        engine.run()
        assert times == [0.5, 1.5]
        assert engine.now_s == 1.5
        assert engine.events_processed == 2

    def test_run_until_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        stop_time = engine.run(until_s=5.0)
        assert fired == [1]
        assert stop_time == 5.0
        # The later event is still pending and runs when resumed.
        engine.run()
        assert fired == [1, 10]

    def test_horizon_authoritative_when_calendar_drains_early(self):
        """Regression: with no event beyond the horizon the clock must still
        land exactly on ``until_s``, not on the last processed event."""
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        stop_time = engine.run(until_s=5.0)
        assert stop_time == 5.0
        assert engine.now_s == 5.0

    def test_horizon_on_empty_calendar(self):
        engine = SimulationEngine()
        assert engine.run(until_s=3.0) == 3.0
        assert engine.now_s == 3.0

    def test_exhausted_event_budget_does_not_jump_to_horizon(self):
        """A run stopped by max_events is mid-flight: the clock stays at the
        last processed event so the caller can resume."""
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        stop_time = engine.run(until_s=10.0, max_events=2)
        assert stop_time == 2.0
        assert engine.now_s == 2.0
        assert engine.run(until_s=10.0) == 10.0

    def test_schedule_in_relative_delay(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: engine.schedule_in(0.5, lambda: None))
        engine.run()
        assert engine.now_s == pytest.approx(1.5)

    def test_scheduling_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(0.5, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda: None)

    def test_events_spawned_during_run_are_processed(self):
        engine = SimulationEngine()
        seen = []

        def cascade(depth):
            seen.append(depth)
            if depth < 3:
                engine.schedule_in(0.1, lambda: cascade(depth + 1))

        engine.schedule(0.0, lambda: cascade(0))
        engine.run()
        assert seen == [0, 1, 2, 3]

    def test_max_events_budget(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i), lambda: None)
        engine.run(max_events=4)
        assert engine.events_processed == 4

    def test_step(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False

    def test_raising_callback_keeps_queue_accounting_exact(self):
        """A callback exception must not corrupt the live count: the popped
        events (including the raising one) leave len(queue) consistent."""
        engine = SimulationEngine()

        def boom():
            raise RuntimeError("injected")

        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, boom)
        engine.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.events_processed == 2  # first event + the raising one
        assert len(engine.queue) == 1
        engine.run()
        assert len(engine.queue) == 0
        assert not engine.queue

    def test_raising_callback_leaves_unexecuted_tail_pending_in_order(self):
        engine = SimulationEngine()
        fired = []

        def boom():
            raise RuntimeError("injected")

        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, boom)
        engine.schedule(3.0, lambda: fired.append(3))
        engine.schedule(4.0, lambda: fired.append(4))
        with pytest.raises(RuntimeError):
            engine.run(max_events=10)
        assert fired == [1]
        assert engine.now_s == 2.0
        assert len(engine.queue) == 2
        engine.run()
        assert fired == [1, 3, 4]
        assert engine.events_processed == 4

    def test_step_skips_cancelled_head_and_counts(self):
        engine = SimulationEngine()
        fired = []
        head = engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        head.cancel()
        assert engine.step() is True
        assert fired == [2]
        assert engine.now_s == 2.0
        assert engine.events_processed == 1
        assert engine.step() is False

    def test_schedule_event_clamps_rounding_error_to_now(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        event = engine.schedule_event(CallbackEvent(1.0 - 1e-13, lambda: None))
        assert event.time_s == 1.0
        with pytest.raises(ValueError):
            engine.schedule_event(CallbackEvent(0.5, lambda: None))

    def test_preload_matches_individual_scheduling(self):
        times = [0.3, 0.1, 0.2, 0.1, 0.0, 0.3]

        def order(bulk):
            engine = SimulationEngine()
            seen = []
            events = [CallbackEvent(t, lambda i=i: seen.append(i)) for i, t in enumerate(times)]
            if bulk:
                engine.preload(events)
            else:
                for event in events:
                    engine.schedule_event(event)
            engine.run()
            return seen

        assert order(bulk=True) == order(bulk=False) == [4, 1, 3, 2, 0, 5]

    def test_typed_event_chain_runs_every_hop(self):
        """Preloaded arrivals flow through a two-stage worker chain: each
        arrival costs exactly five events (arrival, then a delivery and a
        batch completion per stage) and every one reaches the last stage."""

        class Stage:
            def __init__(self, engine, next_stage, batch_s):
                self.engine, self.next_stage, self.batch_s = engine, next_stage, batch_s
                self.completed = 0

            def enqueue(self, query):
                engine = self.engine
                engine.schedule_event(BatchCompleteEvent(engine.now_s + self.batch_s, self, query))

            def _complete_batch(self, query):
                engine = self.engine
                if self.next_stage is None:
                    self.completed += 1
                else:
                    engine.schedule_event(DeliveryEvent(engine.now_s + 0.002, self.next_stage, query))

        class Frontend:
            def __init__(self, engine, stage):
                self.engine, self.stage = engine, stage

            def submit(self):
                engine = self.engine
                engine.schedule_event(DeliveryEvent(engine.now_s + 0.002, self.stage, None))

        engine = SimulationEngine()
        last = Stage(engine, None, 0.020)
        frontend = Frontend(engine, Stage(engine, last, 0.030))
        arrivals = [0.001 * i for i in range(200)]
        engine.preload([ArrivalEvent(t, frontend) for t in arrivals])
        engine.run()
        assert last.completed == len(arrivals)
        assert engine.events_processed == 5 * len(arrivals)
        assert engine.now_s == pytest.approx(arrivals[-1] + 0.002 + 0.030 + 0.002 + 0.020)


# ---------------------------------------------------------- order properties
class _ReferenceEngine:
    """Naive scheduler with the engine's documented semantics.

    Every step linearly scans for the earliest live ``(time, sequence)``
    entry, so the order is correct by construction; the heap engine must
    reproduce it exactly.
    """

    def __init__(self):
        self.now_s = 0.0
        self._pending = []
        self._seq = 0

    def schedule_event(self, event):
        self._seq += 1
        self._pending.append((event.time_s, self._seq, event))
        return event

    def run(self):
        while True:
            live = [entry for entry in self._pending if not entry[2].cancelled]
            if not live:
                return
            entry = min(live, key=lambda e: (e[0], e[1]))
            self._pending.remove(entry)
            self.now_s = entry[0]
            entry[2].run()


def _load_schedule(engine, schedule, order):
    """Schedule a generated workload; events append to ``order`` when run.

    ``schedule`` is a list of ``(time, child_delays, cancel_targets)``: event
    ``i`` fires at ``time``, schedules one child per delay (at ``now +
    delay``) and cancels the listed root events by index, so the workload
    exercises equal-time ties, mid-run scheduling and mid-run cancellation.
    """
    handles = {}

    def make_action(label, child_delays, cancel_targets):
        def action():
            order.append((round(engine.now_s, 9), label))
            for k, delay in enumerate(child_delays):
                child = CallbackEvent(engine.now_s + delay, make_action((label, k), (), ()))
                engine.schedule_event(child)
            for target in cancel_targets:
                handle = handles.get(target)
                if handle is not None:
                    handle.cancel()

        return action

    for i, (time_s, child_delays, cancel_targets) in enumerate(schedule):
        handles[i] = engine.schedule_event(
            CallbackEvent(time_s, make_action(i, child_delays, cancel_targets))
        )
    return handles


def _run_order(engine, schedule, drive=None):
    order = []
    _load_schedule(engine, schedule, order)
    (drive or (lambda e: e.run()))(engine)
    return order


#: coarse time grid => heavy equal-time ties (the FIFO tie-break is the point)
_times = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)
_event = st.tuples(
    _times,
    st.lists(st.integers(min_value=0, max_value=8).map(lambda k: k * 0.125), max_size=2),
    st.lists(st.integers(min_value=0, max_value=19), max_size=2),
)
_schedules = st.lists(_event, max_size=20)


class TestOrderProperties:
    @settings(max_examples=60, deadline=None)
    @given(_schedules)
    def test_order_matches_reference_scheduler(self, schedule):
        assert _run_order(SimulationEngine(), schedule) == _run_order(_ReferenceEngine(), schedule)

    @settings(max_examples=40, deadline=None)
    @given(_schedules)
    def test_cancelled_events_never_fire(self, schedule):
        engine = SimulationEngine()
        order = []
        handles = _load_schedule(engine, schedule, order)
        doomed = {i for i in handles if i % 3 == 0}
        for i in doomed:
            handles[i].cancel()
        engine.run()
        assert not doomed & {label for _, label in order}
        assert len(engine.queue) == 0

    @settings(max_examples=30, deadline=None)
    @given(_schedules)
    def test_stepping_matches_run(self, schedule):
        def step_all(engine):
            while engine.step():
                pass

        assert _run_order(SimulationEngine(), schedule, step_all) == _run_order(
            SimulationEngine(), schedule
        )

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
    @settings(max_examples=30, deadline=None)
    @given(schedule=_schedules)
    def test_budgeted_resumption_keeps_order(self, budget, schedule):
        def in_slices(engine):
            while len(engine.queue):
                before = engine.events_processed
                engine.run(max_events=budget)
                assert engine.events_processed - before <= budget

        assert _run_order(SimulationEngine(), schedule, in_slices) == _run_order(
            SimulationEngine(), schedule
        )

    @pytest.mark.parametrize("split_s", [0.0, 0.6, 1.25, 2.0, 3.1])
    @settings(max_examples=30, deadline=None)
    @given(schedule=_schedules)
    def test_horizon_split_keeps_order(self, split_s, schedule):
        def split(engine):
            assert engine.run(until_s=split_s) == split_s
            engine.run()

        assert _run_order(SimulationEngine(), schedule, split) == _run_order(
            SimulationEngine(), schedule
        )
