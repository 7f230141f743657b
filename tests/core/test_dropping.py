"""Tests for the early-dropping policies and opportunistic rerouting (Section 5.2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dropping import (
    FORWARD_DECISION,
    PROCESS_DECISION,
    DropAction,
    LastTaskDropping,
    NoEarlyDropping,
    OpportunisticRerouting,
    PerTaskDropping,
    POLICY_NAMES,
    make_drop_policy,
)
from repro.core.load_balancer import BackupEntry, RoutingEntry


def backup(worker_id="spare", latency=5.0, accuracy=0.9, capacity=50.0, task="classify"):
    return BackupEntry(
        worker_id=worker_id,
        task=task,
        variant_name=f"{worker_id}_variant",
        accuracy=accuracy,
        latency_ms=latency,
        leftover_capacity_qps=capacity,
    )


PLANNED = RoutingEntry(worker_id="planned", probability=1.0, accuracy=1.0, latency_ms=40.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestPolicyRegistry:
    def test_all_four_policies_registered(self):
        assert set(POLICY_NAMES) == {
            "no_early_dropping",
            "last_task_dropping",
            "per_task_dropping",
            "opportunistic_rerouting",
        }

    @pytest.mark.parametrize("name", sorted(POLICY_NAMES))
    def test_factory_builds_each_policy(self, name):
        policy = make_drop_policy(name)
        assert policy.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_drop_policy("yolo")


class TestNoEarlyDropping:
    def test_never_drops(self, rng):
        policy = NoEarlyDropping()
        assert policy.on_arrival(is_last_task=True, remaining_slo_ms=-5.0, expected_processing_ms=10.0).action is DropAction.PROCESS
        decision = policy.on_forward(
            time_in_task_ms=1000.0,
            budget_ms=10.0,
            planned_entry=PLANNED,
            backups=[],
            remaining_slo_ms=-100.0,
            rng=rng,
        )
        assert decision.action is DropAction.FORWARD


class TestLastTaskDropping:
    def test_drops_only_at_last_task(self):
        policy = LastTaskDropping()
        late = dict(remaining_slo_ms=5.0, expected_processing_ms=20.0)
        assert policy.on_arrival(is_last_task=True, **late).action is DropAction.DROP
        assert policy.on_arrival(is_last_task=False, **late).action is DropAction.PROCESS

    def test_processes_when_budget_sufficient(self):
        policy = LastTaskDropping()
        assert (
            policy.on_arrival(is_last_task=True, remaining_slo_ms=50.0, expected_processing_ms=20.0).action
            is DropAction.PROCESS
        )

    def test_never_drops_on_forward(self, rng):
        policy = LastTaskDropping()
        decision = policy.on_forward(
            time_in_task_ms=500.0, budget_ms=10.0, planned_entry=PLANNED, backups=[], remaining_slo_ms=1.0, rng=rng
        )
        assert decision.action is DropAction.FORWARD


class TestPerTaskDropping:
    def test_drops_when_budget_exceeded(self, rng):
        policy = PerTaskDropping()
        decision = policy.on_forward(
            time_in_task_ms=30.0, budget_ms=20.0, planned_entry=PLANNED, backups=[], remaining_slo_ms=100.0, rng=rng
        )
        assert decision.action is DropAction.DROP

    def test_forwards_within_budget(self, rng):
        policy = PerTaskDropping()
        decision = policy.on_forward(
            time_in_task_ms=10.0, budget_ms=20.0, planned_entry=PLANNED, backups=[], remaining_slo_ms=100.0, rng=rng
        )
        assert decision.action is DropAction.FORWARD

    def test_drops_on_arrival_when_slo_exhausted(self):
        policy = PerTaskDropping()
        assert policy.on_arrival(is_last_task=False, remaining_slo_ms=-1.0, expected_processing_ms=5.0).action is DropAction.DROP


class TestOpportunisticRerouting:
    def test_forwards_when_within_budget(self, rng):
        policy = OpportunisticRerouting()
        decision = policy.on_forward(
            time_in_task_ms=10.0, budget_ms=20.0, planned_entry=PLANNED, backups=[backup()], remaining_slo_ms=30.0, rng=rng
        )
        assert decision.action is DropAction.FORWARD

    def test_forwards_when_planned_worker_still_meets_deadline(self, rng):
        policy = OpportunisticRerouting()
        # Overrun, but plenty of SLO budget left for the planned worker (40ms * 2 = 80 needed).
        decision = policy.on_forward(
            time_in_task_ms=100.0, budget_ms=20.0, planned_entry=PLANNED, backups=[], remaining_slo_ms=200.0, rng=rng
        )
        assert decision.action is DropAction.FORWARD

    def test_reroutes_to_faster_spare_worker(self, rng):
        policy = OpportunisticRerouting()
        fast_spare = backup("spare_fast", latency=10.0, accuracy=0.9)
        decision = policy.on_forward(
            time_in_task_ms=100.0,
            budget_ms=20.0,
            planned_entry=PLANNED,
            backups=[fast_spare],
            remaining_slo_ms=50.0,  # planned needs 80, spare needs 20
            rng=rng,
        )
        assert decision.action is DropAction.REROUTE
        assert decision.target.worker_id == "spare_fast"

    def test_prefers_most_accurate_candidate(self, rng):
        policy = OpportunisticRerouting()
        candidates = [
            backup("fast_low_acc", latency=5.0, accuracy=0.7),
            backup("fast_high_acc", latency=10.0, accuracy=0.95),
        ]
        decision = policy.on_forward(
            time_in_task_ms=100.0,
            budget_ms=20.0,
            planned_entry=PLANNED,
            backups=candidates,
            remaining_slo_ms=50.0,
            rng=rng,
        )
        assert decision.action is DropAction.REROUTE
        assert decision.target.worker_id == "fast_high_acc"

    def test_ignores_backups_without_capacity(self, rng):
        policy = OpportunisticRerouting()
        decision = policy.on_forward(
            time_in_task_ms=100.0,
            budget_ms=20.0,
            planned_entry=PLANNED,
            backups=[backup("empty", latency=5.0, capacity=0.0)],
            remaining_slo_ms=50.0,
            rng=rng,
        )
        assert decision.action is DropAction.DROP

    def test_drops_when_no_backup_fast_enough(self, rng):
        policy = OpportunisticRerouting()
        decision = policy.on_forward(
            time_in_task_ms=100.0,
            budget_ms=20.0,
            planned_entry=PLANNED,
            backups=[backup("slow", latency=100.0)],
            remaining_slo_ms=50.0,
            rng=rng,
        )
        assert decision.action is DropAction.DROP
        assert decision.drops

    def test_forwards_at_sink_even_if_late(self, rng):
        policy = OpportunisticRerouting()
        decision = policy.on_forward(
            time_in_task_ms=100.0, budget_ms=20.0, planned_entry=None, backups=[], remaining_slo_ms=-10.0, rng=rng
        )
        assert decision.action is DropAction.FORWARD

    def test_arrival_drop_only_at_last_task_when_hopeless(self):
        policy = OpportunisticRerouting()
        assert (
            policy.on_arrival(is_last_task=True, remaining_slo_ms=5.0, expected_processing_ms=20.0).action
            is DropAction.DROP
        )
        assert (
            policy.on_arrival(is_last_task=False, remaining_slo_ms=5.0, expected_processing_ms=20.0).action
            is DropAction.PROCESS
        )

    def test_tie_break_is_deterministic_given_seed(self):
        policy = OpportunisticRerouting()
        ties = [backup("a", latency=5.0, accuracy=0.9), backup("b", latency=6.0, accuracy=0.9)]
        decisions = set()
        for seed in range(10):
            decision = policy.on_forward(
                time_in_task_ms=100.0,
                budget_ms=20.0,
                planned_entry=PLANNED,
                backups=ties,
                remaining_slo_ms=50.0,
                rng=np.random.default_rng(seed),
            )
            decisions.add(decision.target.worker_id)
        # Random tie-break must stay within the tied candidates (and can pick either).
        assert decisions <= {"a", "b"}


class _NoDraws:
    """A ``Draws`` stub on which any draw fails the test."""

    def random(self):
        raise AssertionError("on_forward drew a uniform")

    def poisson(self, lam):
        raise AssertionError("on_forward drew a Poisson count")

    def integers(self, high):
        raise AssertionError("on_forward drew an integer")


_latencies = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_backups = st.lists(
    st.builds(
        backup,
        worker_id=st.sampled_from(["a", "b", "c"]),
        latency=_latencies,
        accuracy=st.sampled_from([0.5, 0.9, 1.0]),
        capacity=st.floats(min_value=-10.0, max_value=100.0, allow_nan=False),
    ),
    max_size=4,
)


class TestOnForwardContract:
    """The simulator skips ``on_forward`` when the task is on time and a
    planned entry exists, so in that case every built-in policy must forward
    to the planned entry and draw nothing."""

    @pytest.mark.parametrize("name", sorted(POLICY_NAMES))
    @given(
        time_in_task_ms=_latencies,
        slack_ms=_latencies,
        planned_latency_ms=_latencies,
        backups=_backups,
        remaining_slo_ms=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    def test_on_time_with_a_planned_entry_forwards_without_a_draw(
        self, name, time_in_task_ms, slack_ms, planned_latency_ms, backups, remaining_slo_ms
    ):
        budget_ms = time_in_task_ms + slack_ms
        assert time_in_task_ms <= budget_ms
        planned = RoutingEntry(worker_id="planned", probability=1.0, accuracy=1.0, latency_ms=planned_latency_ms)
        decision = make_drop_policy(name).on_forward(
            time_in_task_ms, budget_ms, planned, backups, remaining_slo_ms, _NoDraws()
        )
        assert decision is FORWARD_DECISION


class TestOnArrivalContract:
    """The simulator skips ``on_arrival`` when the remaining SLO covers the
    expected processing time, so in that case every built-in policy must
    process the query."""

    @pytest.mark.parametrize("name", sorted(POLICY_NAMES))
    @pytest.mark.parametrize("is_last_task", [False, True])
    @given(
        expected_processing_ms=st.floats(min_value=0.0, max_value=1e4, allow_nan=False, exclude_min=True),
        slack_ms=_latencies,
    )
    def test_enough_time_left_processes(self, name, is_last_task, expected_processing_ms, slack_ms):
        remaining_slo_ms = expected_processing_ms + slack_ms
        assert remaining_slo_ms >= expected_processing_ms > 0
        decision = make_drop_policy(name).on_arrival(is_last_task, remaining_slo_ms, expected_processing_ms)
        assert decision is PROCESS_DECISION
