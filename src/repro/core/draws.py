"""The simulation's random stream: block-buffered scalar draws.

Every data-plane consumer (routing, network jitter, content fan-out, drop
tie-breaks) draws from one ``Generator`` per run, one scalar at a time and
interleaved per query.  A scalar ``Generator.random()`` call costs several
hundred nanoseconds of NumPy dispatch; reading the next float of a list that
``Generator.random(BLOCK_SIZE)`` filled costs a fraction of that, and a block
draw yields exactly the values the sequential calls would.

:class:`DrawStream` serves the scalar draws from such blocks while keeping
the stream *the same stream*: every consumer reads one buffer, so the order
of draws, and hence every simulated value, is the one a plain ``Generator``
would produce.  Draws the buffer cannot serve (``integers``, ``poisson`` at
``lam >= 10``, vectorized draws) go through :attr:`DrawStream.generator`,
which first rewinds the generator to exactly where the scalar draws would
have left it.

:class:`Draws` is the protocol the consumers are typed against; a plain
``numpy.random.Generator`` satisfies it as well (the resilience layer's side
stream is one).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from math import exp
from operator import length_hint
from typing import Any, Callable, Iterator, Mapping, Optional, Protocol

import numpy as np

__all__ = ["BLOCK_SIZE", "DrawStream", "Draws", "poisson_threshold"]

#: uniforms drawn per refill; large enough to amortise the NumPy call, small
#: enough that a rewind (which redraws the consumed part) stays cheap
BLOCK_SIZE = 4096


def poisson_threshold(lam: float) -> Optional[float]:
    """``exp(-lam)`` when a Poisson draw of mean ``lam`` runs NumPy's
    multiplication method (``0 < lam < 10``), else ``None``.

    With it, the count is the number of uniforms whose running product stays
    above the threshold, drawn from :meth:`DrawStream.random`::

        count = 0
        product = random()
        while product > threshold:
            count += 1
            product *= random()

    which is what :meth:`DrawStream.poisson` returns, and what
    ``Generator.poisson`` returns and consumes.  A hot path that draws the
    same mean repeatedly stores the threshold once and runs this loop inline.
    """
    return exp(-lam) if 0.0 < lam < 10.0 else None


class Draws(Protocol):
    """The scalar draws the data plane makes from a random stream."""

    def random(self) -> float:
        ...  # pragma: no cover - protocol

    def poisson(self, lam: float, /) -> int:
        ...  # pragma: no cover - protocol

    def integers(self, high: int, /) -> int:
        ...  # pragma: no cover - protocol


class DrawStream:
    """A ``Generator`` whose scalar uniform and Poisson draws come from blocks.

    ``random()`` is the ``__next__`` of a C-level iterator over successive
    blocks, so a draw is one C call.  ``poisson(lam)`` for ``0 < lam < 10``
    runs NumPy's own multiplication method (``random_poisson_mult``) over the
    same uniforms, so it returns what ``Generator.poisson`` would and
    consumes the same draws.  Everything else goes through :attr:`generator`.

    Do not hold the raw generator across buffered draws: take
    :attr:`generator` afresh for each non-buffered draw, so it is rewound.
    A rewind discards the rest of the block, and the next scalar draw
    refills a whole one: ~0.1 ms on a 2-core Xeon host, where a buffered
    draw costs well under a microsecond.  The non-buffered path is for rare
    draws (a reroute tie-break), not for a per-query one.
    """

    __slots__ = ("random", "_gen", "_bit_generator", "_block", "_block_state")

    def __init__(self, generator: np.random.Generator) -> None:
        self._gen = generator
        self._bit_generator = generator.bit_generator
        #: iterator over the current block's unread uniforms
        self._block: Iterator[float] = iter(())
        #: bit-generator state when the current block was drawn
        self._block_state: Mapping[str, Any] = self._bit_generator.state
        self.random: Callable[[], float] = chain.from_iterable(iter(self._refill, None)).__next__

    def _refill(self) -> Iterator[float]:
        self._block_state = self._bit_generator.state
        self._block = iter(self._gen.random(BLOCK_SIZE).tolist())
        return self._block

    def sync(self) -> None:
        """Rewind the generator to where the draws served so far leave it.

        The unread rest of the block is discarded.  Redrawing the consumed
        count from the block's start state needs no ``advance`` support, so
        this works for any BitGenerator.
        """
        unread = length_hint(self._block)
        if unread:
            self._bit_generator.state = self._block_state
            self._gen.random(BLOCK_SIZE - unread)
            deque(self._block, maxlen=0)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator, rewound to the stream's position."""
        self.sync()
        return self._gen

    def poisson(self, lam: float) -> int:
        threshold = poisson_threshold(lam)
        if threshold is not None:
            random = self.random
            count = 0
            product = random()
            while product > threshold:
                count += 1
                product *= random()
            return count
        if lam == 0.0:
            return 0
        return int(self.generator.poisson(lam))

    def integers(self, high: int) -> int:
        return int(self.generator.integers(high))
