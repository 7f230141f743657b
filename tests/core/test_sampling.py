"""Tests for the compiled categorical sampler behind every routing draw."""

import numpy as np
import pytest

from repro.core.load_balancer import RoutingEntry, RoutingTable
from repro.core.sampling import CompiledSampler


class TestCompiledSampler:
    @pytest.mark.parametrize(
        "weights", [[], [[0.5, 0.5]], [0.0, 0.0], [1.0, np.inf], [-1.0, 0.5]]
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            CompiledSampler(weights)

    def test_probabilities_are_normalized_weights(self):
        sampler = CompiledSampler([3.0, 1.0, 0.0, 4.0])
        assert len(sampler) == 4
        assert sampler.probabilities() == pytest.approx([0.375, 0.125, 0.0, 0.5])
        assert sampler.cumulative[-1] == pytest.approx(1.0)
        assert sampler.cumulative_list == sampler.cumulative.tolist()

    def test_choose_index_consumes_exactly_one_uniform(self):
        sampler = CompiledSampler([0.2, 0.3, 0.5])
        rng = np.random.default_rng(3)
        reference = np.random.default_rng(3)
        for _ in range(100):
            sampler.choose_index(rng)
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_choose_index_is_inverse_cdf(self):
        sampler = CompiledSampler([0.2, 0.3, 0.5])
        rng = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        for _ in range(500):
            u = reference.random()
            expected = 0 if u < 0.2 else (1 if u < 0.5 else 2)
            assert sampler.choose_index(rng) == expected

    def test_zero_weight_entries_never_drawn(self):
        sampler = CompiledSampler([0.0, 1.0, 0.0, 1.0])
        rng = np.random.default_rng(0)
        drawn = {sampler.choose_index(rng) for _ in range(2000)}
        assert drawn == {1, 3}

    def test_draws_follow_probabilities(self):
        sampler = CompiledSampler([0.7, 0.2, 0.1])
        rng = np.random.default_rng(1)
        counts = np.bincount([sampler.choose_index(rng) for _ in range(20_000)], minlength=3)
        assert counts / counts.sum() == pytest.approx([0.7, 0.2, 0.1], abs=0.015)

    def test_routing_table_inlines_the_same_draw(self):
        """RoutingTable.choose inlines choose_index; both must pick the same
        entry from the same uniform stream."""
        table = RoutingTable()
        for i, probability in enumerate([0.1, 0.0, 0.6, 0.3]):
            table.add("t", RoutingEntry(f"w{i}", probability, 1.0, 10.0))
        sampler = table.sampler_for("t")
        entries = table.entries("t")
        rng = np.random.default_rng(21)
        reference = np.random.default_rng(21)
        for _ in range(500):
            picked = table.choose("t", rng)
            assert picked is entries[sampler.choose_index(reference)]
