"""Tests for arrival processes and request-content models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import Edge
from repro.workloads import (
    MultiplicativeContentModel,
    arrivals_for_second,
    arrivals_from_trace,
    constant_trace,
    make_arrival_process,
)
from repro.workloads.arrivals import ARRIVAL_PROCESSES

from tests.conftest import make_variant


class TestArrivals:
    def test_poisson_arrivals_within_second(self, rng):
        times = arrivals_for_second(50.0, 10.0, rng, process="poisson")
        assert np.all(times >= 10.0)
        assert np.all(times < 11.0)
        assert np.all(np.diff(times) >= 0)  # sorted

    def test_poisson_mean_count(self):
        rng = np.random.default_rng(0)
        counts = [len(arrivals_for_second(40.0, 0.0, rng)) for _ in range(300)]
        assert np.mean(counts) == pytest.approx(40.0, rel=0.1)

    def test_uniform_arrivals_deterministic_count(self, rng):
        times = arrivals_for_second(10.0, 5.0, rng, process="uniform")
        assert len(times) == 10
        assert np.all((times >= 5.0) & (times < 6.0))
        # Evenly spaced
        assert np.allclose(np.diff(times), 0.1)

    def test_zero_rate_yields_no_arrivals(self, rng):
        assert arrivals_for_second(0.0, 0.0, rng).size == 0

    def test_negative_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            arrivals_for_second(-1.0, 0.0, rng)

    def test_unknown_process_rejected(self, rng):
        with pytest.raises(ValueError):
            arrivals_for_second(1.0, 0.0, rng, process="bursty")

    def test_arrivals_from_trace_cover_every_second(self, rng):
        trace = constant_trace(5.0, 4)
        batches = list(arrivals_from_trace(trace, rng, process="uniform"))
        assert len(batches) == 4
        for second, batch in enumerate(batches):
            assert np.all((batch >= second) & (batch < second + 1))

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=200.0), second=st.integers(min_value=0, max_value=100))
    def test_arrival_times_always_inside_their_second(self, rate, second):
        rng = np.random.default_rng(1)
        times = arrivals_for_second(rate, float(second), rng)
        if times.size:
            assert times.min() >= second
            assert times.max() < second + 1


class TestArrivalProcesses:
    """The vectorized whole-trace API used by the scenario substrate."""

    def test_registry_contents(self):
        assert {"poisson", "uniform", "mmpp", "diurnal", "flash_crowd"} <= set(ARRIVAL_PROCESSES)

    def test_unknown_process_name_rejected(self):
        with pytest.raises(ValueError):
            make_arrival_process("teleporting")

    def test_poisson_trace_sampling_is_sorted_and_in_range(self):
        rng = np.random.default_rng(0)
        times = make_arrival_process("poisson").sample_trace(np.full(20, 50.0), rng)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() < 20.0
        assert len(times) == pytest.approx(20 * 50.0, rel=0.1)

    def test_poisson_negative_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_arrival_process("poisson").sample_trace(np.array([1.0, -1.0]), rng)

    def test_uniform_trace_sampling_exact_counts(self):
        rng = np.random.default_rng(0)
        times = make_arrival_process("uniform").sample_trace(np.array([4.0, 0.0, 2.0]), rng)
        assert len(times) == 6
        assert np.all((times[:4] >= 0.0) & (times[:4] < 1.0))
        assert np.all((times[4:] >= 2.0) & (times[4:] < 3.0))

    def test_mmpp_preserves_mean_but_adds_burstiness(self):
        """The MMPP's stationary mean multiplier is 1, so total demand follows
        the trace while per-second counts become overdispersed."""
        rng_poisson = np.random.default_rng(5)
        rng_mmpp = np.random.default_rng(5)
        rate, duration = 40.0, 400
        qps = np.full(duration, rate)
        poisson_times = make_arrival_process("poisson").sample_trace(qps, rng_poisson)
        mmpp_times = make_arrival_process("mmpp", burst_intensity=3.0).sample_trace(qps, rng_mmpp)
        assert len(mmpp_times) == pytest.approx(len(poisson_times), rel=0.15)
        edges = np.arange(duration + 1)
        poisson_var = np.histogram(poisson_times, bins=edges)[0].var()
        mmpp_var = np.histogram(mmpp_times, bins=edges)[0].var()
        assert mmpp_var > 1.5 * poisson_var

    def test_mmpp_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_arrival_process("mmpp", burst_intensity=0.5)
        with pytest.raises(ValueError):
            make_arrival_process("mmpp", p_enter_burst=0.0)
        with pytest.raises(ValueError):
            # Stationary mean cannot stay 1 with this much burst weight.
            make_arrival_process("mmpp", burst_intensity=10.0, p_enter_burst=0.5, p_exit_burst=0.5)

    def test_flash_crowd_concentrates_arrivals_in_spike(self):
        rng = np.random.default_rng(2)
        process = make_arrival_process("flash_crowd", magnitude=5.0, spike_at_s=40.0, spike_duration_s=10.0)
        times = process.sample_trace(np.full(100, 20.0), rng)
        in_spike = np.sum((times >= 40.0) & (times < 50.0))
        before = np.sum((times >= 20.0) & (times < 30.0))
        assert in_spike > 3 * before

    def test_flash_crowd_defaults_to_trace_midpoint(self):
        rng = np.random.default_rng(2)
        process = make_arrival_process("flash_crowd", magnitude=6.0, spike_duration_s=4.0)
        rates = process.modulated_rates(np.full(20, 10.0), rng)
        # Spike window is centred: [8, 12) for a 4-second spike in 20 seconds.
        assert 8 <= rates.argmax() < 12
        assert rates[10] == pytest.approx(60.0)
        assert rates[0] == pytest.approx(10.0)

    def test_diurnal_modulation_shape(self):
        rng = np.random.default_rng(0)
        process = make_arrival_process("diurnal", amplitude=0.5, period_s=20.0)
        rates = process.modulated_rates(np.full(40, 10.0), rng)
        assert rates.max() == pytest.approx(15.0, rel=0.01)
        assert rates.min() == pytest.approx(5.0, rel=0.01)
        assert np.all(rates >= 0)

    def test_diurnal_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_arrival_process("diurnal", amplitude=1.5)
        with pytest.raises(ValueError):
            make_arrival_process("diurnal", period_s=0.0)

    def test_sampling_is_deterministic_per_seed(self):
        for name in ("poisson", "mmpp", "flash_crowd", "diurnal"):
            a = make_arrival_process(name).sample_trace(np.full(30, 25.0), np.random.default_rng(9))
            b = make_arrival_process(name).sample_trace(np.full(30, 25.0), np.random.default_rng(9))
            assert np.array_equal(a, b)


class TestContentModel:
    def test_unit_factor_is_deterministic(self, rng):
        model = MultiplicativeContentModel()
        variant = make_variant("classifier", factor=1.0)
        edge = Edge("a", "b", branch_ratio=1.0)
        assert all(model.sample_children(variant, edge, rng) == 1 for _ in range(50))

    def test_expected_mode_returns_rounded_mean(self, rng):
        model = MultiplicativeContentModel(mode="expected")
        variant = make_variant("detector", factor=2.6)
        edge = Edge("a", "b", branch_ratio=1.0)
        assert model.sample_children(variant, edge, rng) == 3

    def test_poisson_mode_matches_mean(self):
        rng = np.random.default_rng(3)
        model = MultiplicativeContentModel(mode="poisson")
        variant = make_variant("detector", factor=2.5)
        edge = Edge("a", "b", branch_ratio=0.6)
        samples = [model.sample_children(variant, edge, rng) for _ in range(3000)]
        assert np.mean(samples) == pytest.approx(1.5, rel=0.1)
        assert min(samples) >= 0

    def test_branch_ratio_scales_mean(self):
        model = MultiplicativeContentModel()
        variant = make_variant("detector", factor=2.0)
        assert model.mean_children(variant, Edge("a", "b", 0.25)) == pytest.approx(0.5)

    def test_factor_scale(self):
        model = MultiplicativeContentModel(factor_scale=2.0)
        variant = make_variant("detector", factor=1.5)
        assert model.mean_children(variant, Edge("a", "b", 1.0)) == pytest.approx(3.0)

    def test_memoised_fanout_draws_like_the_formula(self):
        """Repeated samples of one (variant, edge) pair consume the RNG exactly
        like one ``rng.poisson(mean)`` per call, or not at all for an integral
        mean; a variant carrying a latency table (a dict, so unhashable)
        samples too."""
        model = MultiplicativeContentModel()
        variant = dataclasses.replace(make_variant("detector", factor=2.5), latency_table={1: 5.0, 4: 12.0})
        edges = (Edge("a", "b", 0.6), Edge("a", "c", 0.4))  # means 1.5 and exactly 1
        mean = model.mean_children(variant, edges[0])
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(200):
            assert model.sample_children(variant, edges[0], rng) == int(reference.poisson(mean))
            assert model.sample_children(variant, edges[1], rng) == 1
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MultiplicativeContentModel(mode="exact")
        with pytest.raises(ValueError):
            MultiplicativeContentModel(factor_scale=0.0)

    @settings(max_examples=30, deadline=None)
    @given(factor=st.floats(min_value=0.2, max_value=4.0), ratio=st.floats(min_value=0.1, max_value=1.0))
    def test_samples_are_nonnegative_integers(self, factor, ratio):
        rng = np.random.default_rng(0)
        model = MultiplicativeContentModel()
        variant = make_variant("detector_h", factor=factor)
        edge = Edge("a", "b", branch_ratio=ratio)
        for _ in range(20):
            value = model.sample_children(variant, edge, rng)
            assert isinstance(value, int)
            assert value >= 0
