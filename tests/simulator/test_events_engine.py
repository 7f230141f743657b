"""Tests for the event calendar and simulation engine.

Every calendar entry is a ``(time_s, seq, action, arg)`` tuple and the engine
calls ``action(arg)``; nothing is cancelled, so a stale entry is one whose
action checks its owner's state and does nothing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import EventQueue


def _noop(arg):
    pass


def drain(queue):
    """Pop every entry of ``queue`` and run it the way the engine does."""
    while queue:
        _, _, action, arg = queue.pop()
        action(arg)


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.extend([(2.0, order.append, "b"), (1.0, order.append, "a"), (3.0, order.append, "c")])
        drain(queue)
        assert order == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.extend([(1.0, order.append, name)])
        queue.extend([(1.0, order.append, name) for name in "de"])
        drain(queue)
        assert order == ["a", "b", "c", "d", "e"]

    def test_every_entry_has_the_one_shape(self):
        engine = SimulationEngine()
        engine.preload([(0.5, print, "preloaded")])
        engine.call_at(1.0, print, "call_at")
        engine.schedule(2.0, lambda: None)
        assert sorted(len(entry) for entry in engine.queue._heap) == [4, 4, 4]
        assert [entry[1] for entry in sorted(engine.queue._heap)] == [1, 2, 3]

    def test_negative_time_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.call_at(-1.0, print, None)
        assert len(engine.queue) == 0

    def test_extend_rejects_negative_times(self):
        with pytest.raises(ValueError):
            EventQueue().extend([(-1.0, print, None)])

    def test_len_and_peek(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.extend([(5.0, print, None), (1.0, print, None)])
        assert len(queue) == 2
        assert queue.peek_time() == 1.0
        assert queue.pop()[0] == 1.0
        assert queue.peek_time() == 5.0
        assert len(queue) == 1
        assert queue.pop()[0] == 5.0
        assert queue.pop() is None
        assert len(queue) == 0

    def test_len_is_tracked_without_scanning(self):
        """The count survives bulk loads, single pushes, pops and a run
        stopped at its horizon exactly."""
        engine = SimulationEngine()
        queue = engine.queue
        engine.preload([(float(i), _noop, None) for i in range(1, 9)])
        engine.call_at(0.5, _noop, None)
        engine.schedule(9.0, lambda: None)
        assert len(queue) == 10
        assert queue.pop()[0] == 0.5
        assert len(queue) == 9
        engine.run(until_s=4.5)
        assert len(queue) == 5
        assert engine.events_processed == 4
        engine.run()
        assert len(queue) == 0
        assert not queue
        assert engine.events_processed == 9

    def test_bulk_extend_matches_individual_pushes(self):
        fired = []
        queue = EventQueue()
        queue.extend([(2.5, fired.append, "mid")])
        queue.extend([(float(t), fired.append, t) for t in (3, 1, 2)])
        drain(queue)
        assert fired == [1, 2, "mid", 3]

    def test_extend_rollback_leaves_calendar_untouched(self):
        queue = EventQueue()
        queue.extend([(1.0, print, "kept")])
        with pytest.raises(ValueError):
            queue.extend([(2.0, print, "rolled back"), (-1.0, print, None)])
        assert len(queue) == 1
        assert queue._seq == 1
        assert queue.pop()[3] == "kept"
        assert queue.pop() is None


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

    def test_call_at_calls_action_with_arg(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, seen.append, ("payload", 1))
        engine.call_at(0.5, seen.append, None)
        engine.run()
        assert seen == [None, ("payload", 1)]

    def test_run_until_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        stop_time = engine.run(until_s=5.0)
        assert fired == [1]
        assert stop_time == 5.0
        # The later entry is still pending and runs when resumed.
        assert len(engine.queue) == 1
        engine.run()
        assert fired == [1, 10]

    def test_entry_past_the_horizon_keeps_its_sequence(self):
        """The entry popped past the horizon goes back with its own sequence
        number, so a tie scheduled after the stop still runs after it."""
        engine = SimulationEngine()
        fired = []
        engine.call_at(2.0, fired.append, "first")
        engine.run(until_s=1.0)
        engine.call_at(2.0, fired.append, "second")
        engine.run()
        assert fired == ["first", "second"]

    def test_horizon_authoritative_when_calendar_drains_early(self):
        """Regression: with no entry beyond the horizon the clock must still
        land exactly on ``until_s``, not on the last processed entry."""
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
        last processed entry so the caller can resume."""
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
            engine.call_at(0.5, print, None)
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda: None)
        assert len(engine.queue) == 0

    def test_call_at_clamps_rounding_error_to_now(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        engine.call_at(1.0 - 1e-13, print, None)
        assert engine.queue.peek_time() == 1.0

    def test_events_spawned_during_run_are_processed(self):
        engine = SimulationEngine()
        seen = []

        def cascade(depth):
            seen.append(depth)
            if depth < 3:
                engine.call_at(engine.now_s + 0.1, cascade, depth + 1)

        engine.call_at(0.0, cascade, 0)
        engine.run()
        assert seen == [0, 1, 2, 3]

    def test_max_events_budget(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i), lambda: None)
        engine.run(max_events=4)
        assert engine.events_processed == 4
        assert len(engine.queue) == 6

    def test_step(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, seen.append, "x")
        assert engine.step() is True
        assert seen == ["x"]
        assert engine.now_s == 1.0
        assert engine.events_processed == 1
        assert engine.step() is False

    def test_step_counts_a_raising_entry_as_run_does(self):
        def boom():
            raise RuntimeError("boom")

        stepped, ran = SimulationEngine(), SimulationEngine()
        for engine in (stepped, ran):
            engine.schedule(1.0, boom)
            engine.schedule(2.0, lambda: None)
        with pytest.raises(RuntimeError):
            stepped.step()
        with pytest.raises(RuntimeError):
            ran.run()
        assert stepped.events_processed == ran.events_processed == 1
        assert len(stepped.queue) == len(ran.queue) == 1

    def test_raising_callback_keeps_queue_accounting_exact(self):
        """The raising entry was popped: it counts as processed and leaves the
        calendar, and the unexecuted tail stays pending."""
        engine = SimulationEngine()

        def boom():
            raise RuntimeError("injected")

        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, boom)
        engine.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.events_processed == 2  # first entry + the raising one
        assert len(engine.queue) == 1
        engine.run()
        assert engine.events_processed == 3
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

    def test_preload_matches_individual_scheduling(self):
        times = [0.3, 0.1, 0.2, 0.1, 0.0, 0.3]

        def order(bulk):
            engine = SimulationEngine()
            seen = []
            entries = [(t, seen.append, i) for i, t in enumerate(times)]
            if bulk:
                engine.preload(entries)
            else:
                for entry in entries:
                    engine.call_at(*entry)
            engine.run()
            return seen

        assert order(bulk=True) == order(bulk=False) == [4, 1, 3, 2, 0, 5]

    def test_entry_chain_runs_every_hop(self):
        """Preloaded arrivals flow through a two-stage worker chain: each
        arrival costs exactly five entries (arrival, then a delivery and a
        batch completion per stage) and every one reaches the last stage."""

        class Stage:
            def __init__(self, engine, next_stage, batch_s):
                self.engine, self.next_stage, self.batch_s = engine, next_stage, batch_s
                self.completed = 0

            def enqueue(self, query):
                self.engine.call_at(self.engine.now_s + self.batch_s, self.complete, query)

            def complete(self, query):
                if self.next_stage is None:
                    self.completed += 1
                else:
                    self.engine.call_at(self.engine.now_s + 0.002, self.next_stage.enqueue, query)

        engine = SimulationEngine()
        last = Stage(engine, None, 0.020)
        first = Stage(engine, last, 0.030)

        def submit(query):
            engine.call_at(engine.now_s + 0.002, first.enqueue, query)

        arrivals = [0.001 * i for i in range(200)]
        engine.preload([(t, submit, i) for i, t in enumerate(arrivals)])
        engine.run()
        assert last.completed == len(arrivals)
        assert engine.events_processed == 5 * len(arrivals)
        assert engine.now_s == pytest.approx(arrivals[-1] + 0.002 + 0.030 + 0.002 + 0.020)


# ---------------------------------------------------------- order properties
class _ReferenceEngine:
    """Naive scheduler with the engine's documented semantics.

    Every step linearly scans for the earliest ``(time, sequence)`` entry, so
    the order is correct by construction; the heap engine must reproduce it
    exactly.
    """

    def __init__(self):
        self.now_s = 0.0
        self.events_processed = 0
        self._pending = []
        self._seq = 0

    def call_at(self, time_s, action, arg):
        self._seq += 1
        self._pending.append((time_s, self._seq, action, arg))

    def run(self):
        while self._pending:
            entry = min(self._pending, key=lambda e: (e[0], e[1]))
            self._pending.remove(entry)
            self.now_s = entry[0]
            self.events_processed += 1
            entry[2](entry[3])


def _load_schedule(engine, schedule, order, live):
    """Schedule a generated workload; live entries append to ``order`` when run.

    ``schedule`` is a list of ``(time, child_delays, stale_targets)``: entry
    ``i`` fires at ``time``, schedules one child per delay (at ``now +
    delay``) and makes the listed root entries stale by index, so the
    workload exercises equal-time ties, mid-run scheduling and owner-side
    staleness.  An entry whose label left ``live`` does nothing when it runs.
    """

    def action(payload):
        label, child_delays, stale_targets = payload
        if label not in live:
            return
        order.append((round(engine.now_s, 9), label))
        for k, delay in enumerate(child_delays):
            child = (label, k)
            live.add(child)
            engine.call_at(engine.now_s + delay, action, (child, (), ()))
        live.difference_update(stale_targets)

    for i, (time_s, child_delays, stale_targets) in enumerate(schedule):
        live.add(i)
        engine.call_at(time_s, action, (i, child_delays, stale_targets))


def _run_order(engine, schedule, drive=None, live=None):
    order = []
    live = set() if live is None else live
    _load_schedule(engine, schedule, order, live)
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
        engine, reference = SimulationEngine(), _ReferenceEngine()
        assert _run_order(engine, schedule) == _run_order(reference, schedule)
        assert engine.events_processed == reference.events_processed

    @settings(max_examples=40, deadline=None)
    @given(_schedules)
    def test_stale_entries_fire_nothing_but_count(self, schedule):
        """Entries made stale before the run do nothing when they run, yet
        are still popped and counted, exactly as by the reference."""
        doomed = {i for i in range(len(schedule)) if i % 3 == 0}

        def run_without_doomed(engine):
            order, live = [], set()
            _load_schedule(engine, schedule, order, live)
            live -= doomed
            engine.run()
            return order

        engine, reference = SimulationEngine(), _ReferenceEngine()
        order = run_without_doomed(engine)
        assert order == run_without_doomed(reference)
        assert not doomed & {label for _, label in order}
        assert engine.events_processed == reference.events_processed >= len(schedule)
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
