"""Typed event calendar for the discrete-event simulator.

The calendar keeps ``(time, sequence, event)`` triples in a binary heap so
ordering comparisons run at C speed on plain tuples (never on event objects).
The sequence number breaks ties deterministically (FIFO among simultaneous
events), which keeps simulations reproducible for a fixed RNG seed.

Events are small ``__slots__`` classes dispatched by *kind*: the hot paths of
the simulator (arrivals, network deliveries, batch completions, model loads,
variant swaps, control ticks) each have a dedicated event type carrying the
exact references its :meth:`Event.run` needs, instead of the seed design's
one-closure-per-event lambdas.  :class:`CallbackEvent` remains for ad-hoc
scheduling (tests, fault injection, user extensions).

A run's client arrivals are one :class:`ArrivalCursor`: a single reusable
event that walks the trace's sorted arrival times, holding one calendar entry
for the whole stream while keeping each arrival's ``(time, sequence)`` order
(see its docstring).  :class:`ArrivalEvent` is the one-shot form of a single
arrival.

``EventQueue.__len__`` is O(1): a live counter is maintained on push, pop and
cancellation rather than recounting the heap.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "CallbackEvent",
    "ArrivalEvent",
    "ArrivalCursor",
    "DeliveryEvent",
    "BatchCompleteEvent",
    "ModelReadyEvent",
    "SwapCompleteEvent",
    "ControlTickEvent",
    "EventQueue",
]


class Event:
    """Base class of all scheduled simulation events.

    Subclasses add ``__slots__`` for their payload and implement :meth:`run`.
    ``cancel()`` marks the event dead; the queue skips it lazily when popped
    and keeps its live count exact.
    """

    __slots__ = ("time_s", "cancelled", "_queue")

    kind = "generic"

    def __init__(self, time_s: float):
        self.time_s = time_s
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def run(self) -> None:
        raise NotImplementedError

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1

    def __repr__(self):  # pragma: no cover - debug helper
        return f"{type(self).__name__}(t={self.time_s:.6f}, cancelled={self.cancelled})"


class CallbackEvent(Event):
    """Ad-hoc event wrapping an arbitrary zero-argument callable."""

    __slots__ = ("action",)

    kind = "callback"

    def __init__(self, time_s: float, action: Callable[[], None]):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.action = action

    def run(self) -> None:
        self.action()


class ArrivalEvent(Event):
    """One client request arrives at the Frontend (a run's arrival stream is
    one :class:`ArrivalCursor` instead)."""

    __slots__ = ("frontend",)

    kind = "arrival"

    def __init__(self, time_s: float, frontend):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.frontend = frontend

    def run(self) -> None:
        self.frontend.submit()


class ArrivalCursor(Event):
    """Every client arrival of a trace, as one reusable event.

    The calendar holds one entry for the whole arrival stream instead of one
    :class:`ArrivalEvent` per query.  :meth:`load` reserves one sequence
    number per arrival; when arrival ``i`` runs it submits its request and
    pushes the cursor back at arrival ``i + 1``'s time with the sequence
    number reserved for it.  Every arrival therefore keeps the ``(time,
    sequence)`` position a preloaded per-arrival event would have had: after
    events scheduled before the load, before events scheduled after it.
    ``times`` must be sorted.
    """

    __slots__ = ("frontend", "times", "index", "base_seq", "calendar")

    kind = "arrival"

    def __init__(self, times: List[float], frontend):
        self.time_s = times[0] if times else 0.0
        self.cancelled = False
        self._queue = None
        self.frontend = frontend
        self.times = times
        self.index = 0
        self.base_seq = 0
        self.calendar: Optional["EventQueue"] = None

    def load(self, queue: "EventQueue") -> None:
        """Reserve the arrivals' sequence numbers in ``queue`` and push the first."""
        times = self.times
        if not times:
            return
        if times[0] < 0:
            raise ValueError("cannot schedule an event at negative time")
        self.calendar = queue
        self.base_seq = queue._seq
        queue._seq += len(times)
        self._queue = queue
        queue._live += 1
        heappush(queue._heap, (self.time_s, self.base_seq + 1, self))

    def run(self) -> None:
        self.frontend.submit()
        index = self.index + 1
        times = self.times
        if index < len(times):
            self.index = index
            self.time_s = time_s = times[index]
            calendar = self.calendar
            self._queue = calendar
            calendar._live += 1
            heappush(calendar._heap, (time_s, self.base_seq + index + 1, self))


class DeliveryEvent(Event):
    """A query is delivered to a worker after its network hop."""

    __slots__ = ("worker", "query")

    kind = "delivery"

    def __init__(self, time_s: float, worker, query):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.worker = worker
        self.query = query

    def run(self) -> None:
        self.worker.enqueue(self.query)


class BatchCompleteEvent(Event):
    """A worker finishes executing one batch of :class:`IntermediateQuery`."""

    __slots__ = ("worker", "batch")

    kind = "batch_complete"

    def __init__(self, time_s: float, worker, batch):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.worker = worker
        self.batch = batch

    def run(self) -> None:
        self.worker._complete_batch(self.batch)


class ModelReadyEvent(Event):
    """A worker's (re)loaded model becomes available for serving."""

    __slots__ = ("worker",)

    kind = "model_ready"

    def __init__(self, time_s: float, worker):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.worker = worker

    def run(self) -> None:
        self.worker._maybe_start_batch()


class SwapCompleteEvent(Event):
    """A pending same-task variant swap finishes loading."""

    __slots__ = ("worker",)

    kind = "swap_complete"

    def __init__(self, time_s: float, worker):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.worker = worker

    def run(self) -> None:
        self.worker._complete_swap()


class ControlTickEvent(Event):
    """End-of-second demand report and control-plane step."""

    __slots__ = ("sim",)

    kind = "control_tick"

    def __init__(self, time_s: float, sim):
        self.time_s = time_s
        self.cancelled = False
        self._queue = None
        self.sim = sim

    def run(self) -> None:
        self.sim._control_tick()


#: Heap entry: (time, sequence, event).  Tuples compare at C speed and the
#: sequence always differs, so event objects are never compared.
_Entry = Tuple[float, int, Event]


class EventQueue:
    """A time-ordered event calendar with O(1) length."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self):
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0

    def push(self, event: Event) -> Event:
        """Add a pre-constructed event to the calendar."""
        if event.time_s < 0:
            raise ValueError("cannot schedule an event at negative time")
        event._queue = self
        self._seq += 1
        self._live += 1
        heappush(self._heap, (event.time_s, self._seq, event))
        return event

    def schedule(self, time_s: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run at simulation time ``time_s``."""
        return self.push(CallbackEvent(time_s, action))

    def extend(self, events: Iterable[Event]) -> None:
        """Bulk-load many events at once.

        Events with equal times keep FIFO order by their position in
        ``events``, matching :meth:`push` semantics.  The batch is appended
        and the heap rebuilt in one O(n + m) heapify.  A negative-time event
        rolls the whole batch back, so the calendar is left untouched (no
        handle of the rejected batch stays attached).
        """
        heap = self._heap
        seq = self._seq
        loaded = len(heap)
        append = heap.append
        for event in events:
            time_s = event.time_s
            if time_s < 0:
                # Roll the partial bulk load back, detaching the rolled-back
                # handles so a later cancel() cannot touch the live count.
                for entry in heap[loaded:]:
                    entry[2]._queue = None
                del heap[loaded:]
                raise ValueError("cannot schedule an event at negative time")
            event._queue = self
            seq += 1
            append((time_s, seq, event))
        self._seq = seq
        self._live += len(heap) - loaded
        heapify(heap)

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` when the calendar is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                self._live -= 1
                # Detach the handle: a cancel() after execution must be a
                # no-op, not a live-count decrement.
                event._queue = None
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            # Detach the discarded handle, exactly as pop() does: the entry
            # leaves the heap here, so the event must no longer reference the
            # queue (a handle kept around and "re-cancelled" after a manual
            # flag reset would otherwise corrupt the live count).
            heappop(heap)[2]._queue = None
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
