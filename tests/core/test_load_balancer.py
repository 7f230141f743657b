"""Tests for the MostAccurateFirst routing algorithm and the Load Balancer."""

import pytest

from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import (
    LoadBalancer,
    MostAccurateFirst,
    RoutingEntry,
    RoutingTable,
    WorkerState,
    workers_from_plan,
)


def worker(worker_id, task, variant, accuracy, capacity, latency=10.0, batch=4):
    return WorkerState(
        worker_id=worker_id,
        task=task,
        variant_name=variant,
        accuracy=accuracy,
        capacity_qps=capacity,
        latency_ms=latency,
        batch_size=batch,
    )


class TestRoutingTable:
    def test_choose_returns_none_when_empty(self, rng):
        table = RoutingTable()
        assert table.choose("task", rng) is None
        assert table.is_empty()

    def test_choose_single_entry(self, rng):
        table = RoutingTable()
        table.add("t", RoutingEntry("w0", 1.0, 1.0, 10.0))
        assert table.choose("t", rng).worker_id == "w0"

    def test_choose_respects_probabilities(self, rng):
        table = RoutingTable()
        table.add("t", RoutingEntry("w0", 0.9, 1.0, 10.0))
        table.add("t", RoutingEntry("w1", 0.1, 0.8, 5.0))
        picks = [table.choose("t", rng).worker_id for _ in range(2000)]
        share_w0 = picks.count("w0") / len(picks)
        assert 0.85 <= share_w0 <= 0.95

    def test_probabilities_renormalised_when_underprovisioned(self, rng):
        table = RoutingTable()
        table.add("t", RoutingEntry("w0", 0.3, 1.0, 10.0))
        table.add("t", RoutingEntry("w1", 0.3, 0.8, 5.0))
        assert table.routed_fraction("t") == pytest.approx(0.6)
        # Sampling still always returns one of the workers.
        assert {table.choose("t", rng).worker_id for _ in range(100)} <= {"w0", "w1"}

    def test_zero_probability_entries_unroutable(self, rng):
        table = RoutingTable()
        table.add("t", RoutingEntry("w0", 0.0, 1.0, 10.0))
        assert table.choose("t", rng) is None

    def test_destination_tasks_and_entries(self):
        table = RoutingTable()
        table.add("a", RoutingEntry("w0", 1.0, 1.0, 10.0))
        table.add("b", RoutingEntry("w1", 1.0, 1.0, 10.0))
        assert set(table.destination_tasks()) == {"a", "b"}
        assert len(table.entries("a")) == 1

class TestMostAccurateFirst:
    def test_most_accurate_worker_saturated_first(self, small_pipeline):
        workers = [
            worker("acc", "detect", "detect_big", 1.0, capacity=50),
            worker("fast", "detect", "detect_small", 0.8, capacity=200),
            worker("c0", "classify", "classify_big", 1.0, capacity=500),
        ]
        plan = MostAccurateFirst(small_pipeline).build(workers, demand_qps=40.0)
        entries = {e.worker_id: e.probability for e in plan.frontend_table.entries("detect")}
        assert entries["acc"] == pytest.approx(1.0)
        assert "fast" not in entries

    def test_overflow_spills_to_next_accurate_worker(self, small_pipeline):
        workers = [
            worker("acc", "detect", "detect_big", 1.0, capacity=50),
            worker("fast", "detect", "detect_small", 0.8, capacity=200),
            worker("c0", "classify", "classify_big", 1.0, capacity=500),
        ]
        plan = MostAccurateFirst(small_pipeline).build(workers, demand_qps=100.0)
        entries = {e.worker_id: e.probability for e in plan.frontend_table.entries("detect")}
        assert entries["acc"] == pytest.approx(0.5)
        assert entries["fast"] == pytest.approx(0.5)

    def test_downstream_demand_uses_multiplicative_factor(self, small_pipeline):
        # detect_big has factor 2.0: 10 qps in -> 20 qps to classify.
        workers = [
            worker("d0", "detect", "detect_big", 1.0, capacity=50),
            worker("c_hi", "classify", "classify_big", 1.0, capacity=15),
            worker("c_lo", "classify", "classify_small", 0.85, capacity=100),
        ]
        plan = MostAccurateFirst(small_pipeline).build(workers, demand_qps=10.0)
        table = plan.worker_tables["d0"]
        probabilities = {e.worker_id: e.probability for e in table.entries("classify")}
        assert probabilities["c_hi"] == pytest.approx(15.0 / 20.0)
        assert probabilities["c_lo"] == pytest.approx(5.0 / 20.0)

    def test_unplaced_fraction_reported_when_capacity_missing(self, small_pipeline):
        workers = [
            worker("d0", "detect", "detect_big", 1.0, capacity=5),
            worker("c0", "classify", "classify_big", 1.0, capacity=100),
        ]
        plan = MostAccurateFirst(small_pipeline).build(workers, demand_qps=50.0)
        assert plan.unplaced_fraction["detect"] == pytest.approx(0.9)

    def test_backup_tables_list_leftover_capacity_fastest_first(self, small_pipeline):
        workers = [
            worker("d0", "detect", "detect_big", 1.0, capacity=100),
            worker("c_hi", "classify", "classify_big", 1.0, capacity=200, latency=20.0),
            worker("c_lo", "classify", "classify_small", 0.85, capacity=200, latency=5.0),
        ]
        plan = MostAccurateFirst(small_pipeline).build(workers, demand_qps=10.0)
        backups = plan.backups_for("classify")
        assert backups, "leftover capacity should be advertised"
        assert backups[0].latency_ms <= backups[-1].latency_ms
        assert all(b.leftover_capacity_qps > 0 for b in backups)

    def test_multiplicative_factor_overrides(self, small_pipeline):
        workers = [
            worker("d0", "detect", "detect_big", 1.0, capacity=100),
            worker("c0", "classify", "classify_big", 1.0, capacity=100),
        ]
        plan = MostAccurateFirst(small_pipeline).build(
            workers, demand_qps=10.0, multiplicative_factors={"detect_big": 5.0}
        )
        # 10 qps x factor 5 = 50 qps wanted downstream but only 100 capacity: fraction routed to c0 is 1.
        assert plan.worker_tables["d0"].routed_fraction("classify") == pytest.approx(1.0)
        # and half the capacity is left over for backups
        assert plan.backups_for("classify")[0].leftover_capacity_qps == pytest.approx(50.0)

    def test_branching_pipeline_routes_both_children(self, branching_pipeline):
        workers = [
            worker("d0", "detect", "det_hi", 1.0, capacity=100),
            worker("a0", "classify_a", "clsa_hi", 1.0, capacity=300),
            worker("b0", "classify_b", "clsb_hi", 1.0, capacity=300),
        ]
        plan = MostAccurateFirst(branching_pipeline).build(workers, demand_qps=20.0)
        table = plan.worker_tables["d0"]
        assert set(table.destination_tasks()) == {"classify_a", "classify_b"}

    def test_zero_demand_produces_empty_frontend_table(self, small_pipeline):
        workers = [worker("d0", "detect", "detect_big", 1.0, capacity=100)]
        plan = MostAccurateFirst(small_pipeline).build(workers, demand_qps=0.0)
        assert plan.frontend_table.routed_fraction("detect") == 0.0


class TestWorkersFromPlan:
    def test_one_worker_state_per_replica(self, small_pipeline):
        problem = AllocationProblem(small_pipeline, num_workers=10, utilization_target=1.0)
        plan = problem.solve(60.0)
        workers = workers_from_plan(plan, small_pipeline)
        assert len(workers) == plan.total_workers
        assert len({w.worker_id for w in workers}) == len(workers)
        for w in workers:
            variant = small_pipeline.registry.variant(w.variant_name)
            assert w.accuracy == pytest.approx(variant.accuracy)
            assert w.capacity_qps > 0


class TestLoadBalancer:
    def test_refresh_interval(self, small_pipeline):
        balancer = LoadBalancer(small_pipeline, refresh_interval_s=2.0)
        workers = [worker("d0", "detect", "detect_big", 1.0, 100), worker("c0", "classify", "classify_big", 1.0, 100)]
        assert balancer.should_refresh(0.0, plan_changed=False)
        balancer.refresh(0.0, workers, 10.0)
        assert not balancer.should_refresh(1.0, plan_changed=False)
        assert balancer.should_refresh(2.5, plan_changed=False)
        assert balancer.should_refresh(1.0, plan_changed=True)

    def test_refresh_publishes_the_plan(self, small_pipeline):
        balancer = LoadBalancer(small_pipeline)
        workers = [worker("d0", "detect", "detect_big", 1.0, 100), worker("c0", "classify", "classify_big", 1.0, 100)]
        plan = balancer.refresh(0.0, workers, 10.0)
        assert balancer.current_plan is plan
