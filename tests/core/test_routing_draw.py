"""Tests for ``RoutingTable.choose``, the inverse-CDF draw behind every route."""

import numpy as np
import pytest

from repro.core.load_balancer import RoutingEntry, RoutingTable


def table_of(probabilities, task="t"):
    table = RoutingTable()
    for i, probability in enumerate(probabilities):
        table.add(task, RoutingEntry(f"w{i}", probability, 1.0, 10.0))
    return table


def index_of(entry):
    return int(entry.worker_id[1:])


class TestRoutingTableDraw:
    @pytest.mark.parametrize("weights", [[1.0, np.inf], [np.nan, 0.5]])
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            table_of(weights).choose("t", np.random.default_rng(0))

    @pytest.mark.parametrize("weights", [[], [0.0, 0.0], [-1.0, 0.5]])
    def test_no_positive_weight_routes_nowhere(self, weights):
        rng = np.random.default_rng(0)
        assert table_of(weights).choose("t", rng) is None
        assert table_of(weights).choose("other", rng) is None

    def test_cumulative_probabilities_are_normalized_weights(self):
        table = table_of([3.0, 1.0, 0.0, 4.0])
        table.choose("t", np.random.default_rng(0))
        cumulative, entries, last = table._compiled["t"]
        assert cumulative == pytest.approx([0.375, 0.5, 0.5, 1.0])
        assert cumulative == np.cumsum(np.array([3.0, 1.0, 0.0, 4.0]) / 8.0).tolist()
        assert len(entries) == 4 and last == 3

    def test_each_draw_consumes_exactly_one_uniform(self):
        table = table_of([0.2, 0.3, 0.5])
        rng = np.random.default_rng(3)
        reference = np.random.default_rng(3)
        for _ in range(100):
            table.choose("t", rng)
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_draw_is_inverse_cdf(self):
        table = table_of([0.2, 0.3, 0.5])
        rng = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        for _ in range(500):
            u = reference.random()
            expected = 0 if u < 0.2 else (1 if u < 0.5 else 2)
            assert index_of(table.choose("t", rng)) == expected

    def test_zero_weight_entries_never_drawn(self):
        table = table_of([0.0, 1.0, 0.0, 1.0])
        rng = np.random.default_rng(0)
        drawn = {index_of(table.choose("t", rng)) for _ in range(2000)}
        assert drawn == {1, 3}

    def test_draws_follow_probabilities(self):
        table = table_of([0.7, 0.2, 0.1])
        rng = np.random.default_rng(1)
        counts = np.bincount([index_of(table.choose("t", rng)) for _ in range(20_000)], minlength=3)
        assert counts / counts.sum() == pytest.approx([0.7, 0.2, 0.1], abs=0.015)

    def test_unplaced_share_is_renormalised(self):
        """A saturated plan routes below 1 in total; draws still pick a worker, in proportion."""
        table = table_of([0.1, 0.3])
        rng = np.random.default_rng(2)
        counts = np.bincount([index_of(table.choose("t", rng)) for _ in range(20_000)], minlength=2)
        assert counts / counts.sum() == pytest.approx([0.25, 0.75], abs=0.015)
