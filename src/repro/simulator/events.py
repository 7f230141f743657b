"""The discrete-event simulator's calendar: one binary heap of one entry shape.

Every heap entry is a ``(time_s, seq, action, arg)`` tuple, and running it
means calling ``action(arg)``.  Tuples compare at C speed; the sequence
number always differs, so ``action`` and ``arg`` are never compared, and it
breaks equal-time ties FIFO, which keeps a seeded run reproducible.  The hot
paths pass a method and its payload directly (``(worker.enqueue, query)``
for a network delivery, ``(worker._complete_batch, batch)`` for a batch
completion); an ad-hoc zero-argument callback is ``(_call, fn)``.

There is no cancellation.  An action that must not take effect after a state
change checks that state itself when it runs: a batch completion returns at
once unless its batch is still the one the worker executes, and a variant
swap installs its assignment only if that assignment is still the pending
one.  Such a stale entry is still popped and counted as processed.

A run's client arrivals are one :class:`ArrivalCursor`: one calendar entry
walks the trace's sorted arrival times while each arrival keeps the
``(time, seq)`` order a preloaded per-arrival entry would have had.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Protocol, Tuple

__all__ = ["Action", "Entry", "ArrivalCursor", "EventQueue"]

#: what a heap entry calls with its ``arg`` when it is due
Action = Callable[[Any], object]
#: the one heap entry shape
Entry = Tuple[float, int, Action, Any]


def _call(fn: Callable[[], object]) -> None:
    """The action of an entry whose payload is a zero-argument callback."""
    fn()


class _Submits(Protocol):
    def submit(self) -> object: ...


class ArrivalCursor:
    """Every client arrival of a trace, as one calendar entry.

    :meth:`load` reserves one sequence number per arrival; when arrival ``i``
    runs it submits its request and pushes the cursor back at arrival
    ``i + 1``'s time with the sequence number reserved for it.  Every arrival
    therefore keeps the ``(time, seq)`` position a preloaded per-arrival
    entry would have had: after entries scheduled before the load, before
    entries scheduled after it.  ``times`` must be sorted.
    """

    __slots__ = ("frontend", "times", "index", "base_seq", "heap")

    def __init__(self, times: List[float], frontend: _Submits) -> None:
        self.frontend = frontend
        self.times = times
        self.index = 0
        self.base_seq = 0
        self.heap: List[Entry] = []

    def load(self, queue: EventQueue) -> None:
        """Reserve the arrivals' sequence numbers in ``queue`` and push the first."""
        times = self.times
        if not times:
            return
        if times[0] < 0:
            raise ValueError("cannot schedule an event at negative time")
        self.heap = queue._heap
        self.base_seq = queue._seq
        queue._seq += len(times)
        heappush(self.heap, (times[0], self.base_seq + 1, ArrivalCursor.run, self))

    def run(self) -> None:
        self.frontend.submit()
        index = self.index + 1
        times = self.times
        if index < len(times):
            self.index = index
            heappush(self.heap, (times[index], self.base_seq + index + 1, ArrivalCursor.run, self))


class EventQueue:
    """The time-ordered heap of ``(time_s, seq, action, arg)`` entries.

    :meth:`SimulationEngine.call_at <repro.simulator.engine.SimulationEngine.call_at>`
    is the scheduling primitive; the queue itself only bulk-loads, pops and
    peeks.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0

    def extend(self, entries: Iterable[Tuple[float, Action, Any]]) -> None:
        """Bulk-load ``(time_s, action, arg)`` triples in one heapify.

        Equal times keep FIFO order by position in ``entries``, as one push
        each would.  A negative time rolls the whole batch back, so the
        calendar is left untouched.
        """
        heap = self._heap
        seq = self._seq
        loaded = len(heap)
        append = heap.append
        for time_s, action, arg in entries:
            if time_s < 0:
                del heap[loaded:]
                raise ValueError("cannot schedule an event at negative time")
            seq += 1
            append((time_s, seq, action, arg))
        self._seq = seq
        heapify(heap)

    def pop(self) -> Optional[Entry]:
        """Remove and return the next entry, or ``None`` when the calendar is empty."""
        return heappop(self._heap) if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the next entry without removing it."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)
