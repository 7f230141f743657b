"""DrawStream serves exactly the draws of the plain Generator it wraps.

Every comparison is bit for bit: each drawn value, and the bit-generator
state at checkpoints (where the stream rewinds its generator).  The
run-level tests swap the stream for a pass-through to the Generator and
require identical summaries and the same final RNG state.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.runner as runner
from repro.core.draws import BLOCK_SIZE, DrawStream, poisson_threshold
from repro.scenarios import get_scenario

BIT_GENERATORS = [np.random.PCG64, np.random.SFC64]
POISSON_MEANS = [0.0, 0.3, 2.4, 9.99, 10.0, 37.5]
#: bursts of uniforms that end exactly on, just before and just after a block
BURSTS = [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1]


def _same(a, b) -> bool:
    """Equality that recurses into state dicts and compares arrays elementwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _pair(bit_generator, seed=11):
    return np.random.Generator(bit_generator(seed)), DrawStream(np.random.Generator(bit_generator(seed)))


def _apply(op, plain, stream) -> None:
    kind = op[0]
    if kind == "random":
        assert stream.random() == plain.random()
    elif kind == "burst":
        assert [stream.random() for _ in range(op[1])] == [plain.random() for _ in range(op[1])]
    elif kind == "poisson":
        assert stream.poisson(op[1]) == plain.poisson(op[1])
    elif kind == "integers":
        assert stream.integers(op[1]) == plain.integers(op[1])
    elif kind == "vector":
        assert np.array_equal(stream.generator.random(op[1]), plain.random(op[1]))
    elif kind == "checkpoint":
        assert _same(stream.generator.bit_generator.state, plain.bit_generator.state)
    else:  # pragma: no cover - strategy and dispatcher disagree
        raise AssertionError(kind)


OPS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("burst"), st.sampled_from(BURSTS)),
    st.tuples(st.just("poisson"), st.sampled_from(POISSON_MEANS)),
    st.tuples(st.just("integers"), st.integers(1, 7)),
    st.tuples(st.just("vector"), st.integers(0, 9)),
    st.just(("checkpoint",)),
)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__)
class TestExactness:
    @given(ops=st.lists(OPS, max_size=40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mixed_sequences_match_plain_generator(self, bit_generator, ops, seed):
        plain, stream = _pair(bit_generator, seed)
        for op in ops:
            _apply(op, plain, stream)
        _apply(("checkpoint",), plain, stream)

    @pytest.mark.parametrize("consumed", [0, 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE])
    def test_rewind_at_block_boundaries(self, bit_generator, consumed):
        plain, stream = _pair(bit_generator)
        _apply(("burst", consumed), plain, stream)
        _apply(("integers", 5), plain, stream)
        _apply(("checkpoint",), plain, stream)
        _apply(("burst", BLOCK_SIZE + 3), plain, stream)
        _apply(("checkpoint",), plain, stream)

    def test_repeated_sync_redraws_nothing(self, bit_generator):
        plain, stream = _pair(bit_generator)
        _apply(("burst", 17), plain, stream)
        state = stream.generator.bit_generator.state
        assert _same(stream.generator.bit_generator.state, state)
        assert _same(state, plain.bit_generator.state)

    @pytest.mark.parametrize("lam", [-1.0, math.nan])
    def test_invalid_mean_raises_like_generator(self, bit_generator, lam):
        plain, stream = _pair(bit_generator)
        _apply(("burst", 3), plain, stream)
        with pytest.raises(ValueError):
            plain.poisson(lam)
        with pytest.raises(ValueError):
            stream.poisson(lam)
        _apply(("random",), plain, stream)
        _apply(("checkpoint",), plain, stream)

    def test_small_mean_poisson_returns_python_ints(self, bit_generator):
        plain, stream = _pair(bit_generator)
        counts = [stream.poisson(2.4) for _ in range(1000)]
        assert all(type(count) is int for count in counts)
        assert counts == [int(plain.poisson(2.4)) for _ in range(1000)]
        assert stream.poisson(0.0) == 0
        _apply(("checkpoint",), plain, stream)


#: fan-out means at the edges of the inline Poisson loop's range
THRESHOLD_MEANS = [1e-9, 0.5, 2.78, 9.999]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("lam", THRESHOLD_MEANS)
def test_inline_poisson_loop_with_the_stored_threshold_matches_generator(bit_generator, lam):
    """A worker's fan-out loop draws each Poisson count inline, from the
    threshold stored at plan application: the same counts as
    ``Generator.poisson`` and, after ``sync()``, the same generator state."""
    plain, stream = _pair(bit_generator)
    threshold = poisson_threshold(lam)
    assert threshold == math.exp(-lam)
    random = stream.random
    counts = []
    for _ in range(2000):
        count = 0
        product = random()
        while product > threshold:
            count += 1
            product *= random()
        counts.append(count)
    assert counts == [int(plain.poisson(lam)) for _ in range(2000)]
    stream.sync()
    assert _same(stream.generator.bit_generator.state, plain.bit_generator.state)


@pytest.mark.parametrize("lam", [0.0, 10.0, 37.5])
def test_no_threshold_outside_the_multiplication_range(lam):
    # a mean of 0, or of 10 or more, goes through DrawStream.poisson
    assert poisson_threshold(lam) is None


class _PassThrough:
    """Unbuffered stand-in for DrawStream: every draw is a Generator call."""

    def __init__(self, generator):
        self.generator = generator
        self.random = generator.random
        self.poisson = generator.poisson
        self.integers_calls = 0

    def integers(self, high):
        self.integers_calls += 1
        return self.generator.integers(high)

    def sync(self):
        pass


def _run(monkeypatch, name, stream_type):
    """One 15 s run whose simulation stream is ``stream_type``: the summary,
    the stream, and the raw generator the runner seeded for it."""
    generators = []

    def make_stream(generator):
        generators.append(generator)
        return stream_type(generator)

    spec = get_scenario(name)
    spec = spec.with_overrides(trace_params={**spec.trace_params, "duration_s": 15})
    with monkeypatch.context() as patch:
        patch.setattr(runner, "DrawStream", make_stream)
        sim = spec.build(seed=0)
        summary = sim.run()
    return dataclasses.asdict(summary), sim.rng, generators[0]


@pytest.mark.parametrize("name", ["smoke", "traffic_power_of_two", "chaos_stragglers"])
def test_buffered_run_matches_unbuffered_run(monkeypatch, name):
    buffered, stream, generator = _run(monkeypatch, name, DrawStream)
    unbuffered, passthrough, reference = _run(monkeypatch, name, _PassThrough)
    assert isinstance(stream, DrawStream) and isinstance(passthrough, _PassThrough)
    assert buffered.keys() == unbuffered.keys()
    for field in buffered:
        assert _same(buffered[field], unbuffered[field]), field
    # read without going through the stream: the run itself leaves the
    # generator where unbuffered draws would have
    assert _same(generator.bit_generator.state, reference.bit_generator.state)
    if name == "traffic_power_of_two":
        # the rerouting tie-break draws through the rewound generator
        assert passthrough.integers_calls > 0
