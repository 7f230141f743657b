"""Simulation engine: clock plus event loop over the calendar's
``(time_s, seq, action, arg)`` entries."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional, Tuple, TypeVar

from repro.simulator.events import Action, EventQueue, _call

__all__ = ["SimulationEngine"]

T = TypeVar("T")


class SimulationEngine:
    """Owns the simulation clock and the event calendar.

    :meth:`call_at` is the one scheduling primitive: at ``time_s`` the loop
    calls ``action(arg)``.  :meth:`schedule` / :meth:`schedule_in` wrap a
    zero-argument callback in the same entry shape, and :meth:`preload`
    bulk-loads entries before a run.  The engine advances the clock to each
    entry in turn until the calendar is empty or the horizon is reached.

    Nothing is ever cancelled: an action that may have gone stale checks its
    owner's state when it runs.  Such a stale entry is still popped, so it
    counts in :attr:`events_processed` and against ``max_events``.
    """

    __slots__ = ("queue", "now_s", "events_processed")

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now_s: float = 0.0
        self.events_processed: int = 0

    # -- scheduling ---------------------------------------------------------
    def call_at(self, time_s: float, action: Callable[[T], object], arg: T) -> None:
        """Call ``action(arg)`` at absolute simulation time ``time_s``.

        A time below ``now_s`` by rounding error (at most 1e-12 s) is clamped
        to ``now_s``; anything earlier is a scheduling bug and raises.

        The data plane's per-query paths push their entries onto the heap
        themselves, with the same sequence counter and entry shape, where the
        delay is non-negative by construction so this check could never
        fire: the arrival cursor, the Frontend's hop, a worker's batch starts
        (``enqueue`` and ``_maybe_start_batch``) and its fan-out hops.
        Everything else schedules through here.
        """
        now = self.now_s
        if time_s < now:
            if time_s < now - 1e-12:
                raise ValueError(f"cannot schedule in the past ({time_s} < {now})")
            time_s = now
        queue = self.queue
        queue._seq = seq = queue._seq + 1
        heappush(queue._heap, (time_s, seq, action, arg))

    def schedule(self, time_s: float, fn: Callable[[], object]) -> None:
        """Call ``fn()`` at absolute simulation time ``time_s``."""
        self.call_at(time_s, _call, fn)

    def schedule_in(self, delay_s: float, fn: Callable[[], object]) -> None:
        """Call ``fn()`` ``delay_s`` seconds from the current time."""
        if delay_s < 0:
            raise ValueError("delay cannot be negative")
        self.call_at(self.now_s + delay_s, _call, fn)

    def preload(self, entries: Iterable[Tuple[float, Action, Any]]) -> None:
        """Bulk-load ``(time_s, action, arg)`` triples in one heapify."""
        self.queue.extend(entries)

    # -- running -------------------------------------------------------------
    def run(self, until_s: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process entries until the horizon, event budget or calendar end.

        When ``until_s`` is given it is the authoritative stop time: the clock
        lands exactly on the horizon whether the calendar drains early or
        entries remain beyond it.  Only an exhausted ``max_events`` budget
        leaves the clock at the last processed entry (the run is mid-flight
        and expected to be resumed).

        Returns the simulation time at which the loop stopped.
        """
        # Hot loop: pop the heap directly, hoist the horizon into one float
        # compare, and count once at loop exit.
        heap = self.queue._heap
        pop = heappop
        horizon = float("inf") if until_s is None else until_s
        processed = 0
        budget_exhausted = False
        try:
            if max_events is None:
                # The common unbudgeted run: one compare less per entry.
                while heap:
                    entry = pop(heap)
                    time_s, _, action, arg = entry
                    if time_s > horizon:
                        # Past the horizon the entry stays pending, with its
                        # sequence number, so a resumed run keeps the order.
                        heappush(heap, entry)
                        break
                    self.now_s = time_s
                    processed += 1  # before the call: a raising entry was still popped
                    action(arg)
            else:
                while heap:
                    entry = pop(heap)
                    time_s, _, action, arg = entry
                    if time_s > horizon:
                        heappush(heap, entry)
                        break
                    self.now_s = time_s
                    processed += 1
                    action(arg)
                    if processed >= max_events:
                        budget_exhausted = True
                        break
        finally:
            self.events_processed += processed
        if until_s is not None and not budget_exhausted and until_s > self.now_s:
            self.now_s = until_s
        return self.now_s

    def step(self) -> bool:
        """Process exactly one entry; returns False when the calendar is empty."""
        entry = self.queue.pop()
        if entry is None:
            return False
        time_s, _, action, arg = entry
        self.now_s = time_s
        self.events_processed += 1  # before the call, as in run()
        action(arg)
        return True
