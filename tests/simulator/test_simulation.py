"""Integration tests for the discrete-event simulator (worker, cluster, frontend, runner)."""

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.core.draws import poisson_threshold
from repro.core.dropping import FORWARD_DECISION, DropPolicy
from repro.core.load_balancer import BackupEntry, RoutingEntry, RoutingPlan, RoutingTable
from repro.control import ControlPlaneEngine, StaticPlanPolicy
from repro.scenarios import get_scenario
from repro.simulator import ServingSimulation, SimulationConfig
from repro.simulator.network import NetworkModel
from repro.simulator.query import Request, RequestStatus
from repro.simulator.worker import SimWorker
from repro.workloads.content import MultiplicativeContentModel
from repro.workloads import constant_trace, ramp_trace


def loki_controller(pipeline, num_workers=10, slo_ms=150.0):
    return Controller(
        pipeline,
        ControllerConfig(
            num_workers=num_workers,
            latency_slo_ms=slo_ms,
            demand_quantum_qps=10.0,
            utilization_target=0.75,
        ),
    )


class TestNetworkModel:
    def test_constant_latency_without_jitter(self, rng):
        model = NetworkModel(latency_ms=3.0, jitter_ms=0.0)
        assert model.sample_delay_s(rng) == 3.0 / 1000.0

    def test_jitter_bounded(self, rng):
        model = NetworkModel(latency_ms=3.0, jitter_ms=1.0)
        samples = [model.sample_delay_s(rng) for _ in range(200)]
        assert all(2.0e-3 - 1e-12 <= s <= 4.0e-3 + 1e-12 for s in samples)
        assert len(set(samples)) > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_ms=-1.0)

    def test_scalar_draw_matches_legacy_uniform_stream(self):
        """The rng.random()-based scalar draw is bit-identical to the
        historical ``rng.uniform(-jitter, jitter)`` implementation."""
        import numpy as np

        model = NetworkModel(latency_ms=3.0, jitter_ms=1.0)
        new = np.random.default_rng(17)
        legacy = np.random.default_rng(17)
        for _ in range(500):
            expected = max(0.0, 3.0 + float(legacy.uniform(-1.0, 1.0))) / 1000.0
            assert model.sample_delay_s(new) == expected

    @pytest.mark.parametrize("latency_ms,jitter_ms", [(3.0, 1.0), (2.0, 0.5), (0.5, 1.0)])
    def test_delay_draws_match_distribution(self, latency_ms, jitter_ms):
        """Per-hop delays are uniform on [latency - jitter, latency + jitter],
        clamped at zero, and consume exactly one uniform per draw."""
        model = NetworkModel(latency_ms=latency_ms, jitter_ms=jitter_ms)
        rng = np.random.default_rng(5)
        reference = np.random.default_rng(5)
        delays = np.array([model.sample_delay_s(rng) for _ in range(5_000)])
        raw = latency_ms + reference.uniform(-jitter_ms, jitter_ms, 5_000)
        assert delays * 1000.0 == pytest.approx(np.maximum(raw, 0.0), abs=1e-9)
        assert float(delays.min()) >= 0.0
        assert float(delays.max()) <= (latency_ms + jitter_ms) / 1000.0 + 1e-12
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_constant_delay_consumes_no_rng(self):
        model = NetworkModel(latency_ms=3.0, jitter_ms=0.0)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert [model.sample_delay_s(rng) for _ in range(3)] == pytest.approx([0.003] * 3)
        assert rng.bit_generator.state == state

    def test_delay_scale_multiplies_every_hop(self):
        model = NetworkModel(latency_ms=3.0, jitter_ms=1.0)
        plain_s = model.sample_delay_s(np.random.default_rng(9))
        model.delay_scale = 4.0
        assert model.sample_delay_s(np.random.default_rng(9)) == pytest.approx(4.0 * plain_s)


class TestScalarGolden:
    #: the smoke scenario's seed-0 summary; the simulator's one data-plane
    #: path must keep reproducing these digits exactly
    GOLDEN = {
        "total_requests": 316,
        "completed_requests": 314,
        "violated_requests": 2,
        "slo_violation_ratio": 0.006329113924050633,
        "mean_accuracy": 1.0,
        "mean_latency_ms": 47.182151778720176,
        "p99_latency_ms": 127.35716176650712,
    }

    def test_smoke_summary_matches_golden(self):
        summary = get_scenario("smoke").run(seed=0)
        for field, expected in self.GOLDEN.items():
            observed = getattr(summary, field)
            if isinstance(expected, int):
                assert observed == expected, field
            else:
                assert observed == pytest.approx(expected, rel=1e-12), field


class TestFanoutBookkeeping:
    """One completed batch of any size fans out exactly the expected children.

    With the deterministic ("expected") content model every query of a
    fan-out task emits the rounded mean number of children per edge, so the
    worker's factor observations, each request's outstanding count and the
    number of scheduled deliveries follow from the batch size alone.
    """

    def _complete_batch(self, size):
        spec = get_scenario("social_twitter_bursty").with_overrides(content_mode="expected")
        simulation = spec.build(seed=0)
        simulation._bootstrap()
        worker = next(
            w
            for w in simulation.cluster.workers
            if w.assignment is not None and w.assignment.fanout
        )
        assignment = worker.assignment
        now = simulation.engine.now_s
        batch = []
        for i in range(size):
            request = Request(i, now, simulation.pipeline.latency_slo_ms)
            request.outstanding += 1  # the parent query itself, as on intake
            query = simulation.new_intermediate_query(request, assignment.task, now, 1.0)
            query.worker_arrival_s = now
            batch.append(query)
        children_per_query = sum(
            simulation.content_model.sample_children(assignment.variant, edge, simulation.rng)
            for edge in simulation.pipeline.children(assignment.task)
        )
        observations_before = worker.factor_observation_count
        observed_before = worker.factor_observation_sum
        calendar_before = len(simulation.engine.queue)
        processed = simulation.telemetry.counter("worker.processed_queries")
        processed_before = processed.value
        worker.batch = batch  # executing, as _maybe_start_batch leaves it
        worker._complete_batch(batch)
        return assignment, batch, children_per_query, {
            "processed_queries": processed.value - processed_before,
            "observations": worker.factor_observation_count - observations_before,
            "children_observed": worker.factor_observation_sum - observed_before,
            "scheduled_deliveries": len(simulation.engine.queue) - calendar_before,
        }

    @pytest.mark.parametrize("size", range(1, 9))
    def test_batch_fanout_bookkeeping(self, size):
        assignment, batch, children, counts = self._complete_batch(size)
        assert children > 0
        assert counts == {
            "processed_queries": size,
            "observations": size,
            "children_observed": size * children,
            "scheduled_deliveries": size * children,
        }
        assert [q.request.outstanding for q in batch] == [children] * size
        assert not any(q.request.is_finished for q in batch)
        accuracy = assignment.variant.accuracy
        assert [q.accuracy_so_far for q in batch] == [accuracy] * size

class TestEndToEndSimulation:
    def test_moderate_load_mostly_meets_slo(self, small_pipeline):
        controller = loki_controller(small_pipeline)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            constant_trace(40.0, 20),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=1),
        )
        summary = sim.run()
        assert summary.total_requests > 500
        assert summary.slo_violation_ratio < 0.15
        assert summary.mean_accuracy > 0.9
        assert summary.peak_workers <= 10

    def test_request_conservation(self, small_pipeline):
        """Every submitted request must end up completed, late or dropped."""
        controller = loki_controller(small_pipeline)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            constant_trace(30.0, 15),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=3, drain_s=10.0),
        )
        summary = sim.run()
        finished = summary.completed_requests + summary.violated_requests
        assert finished == summary.total_requests

    def test_deterministic_given_seed(self, small_pipeline):
        def run_once():
            controller = loki_controller(small_pipeline)
            sim = ServingSimulation(
                small_pipeline,
                controller,
                constant_trace(30.0, 10),
                SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=7),
            )
            summary = sim.run()
            return (summary.total_requests, summary.completed_requests, round(summary.mean_accuracy, 6))

        assert run_once() == run_once()

    def test_different_seeds_differ(self, small_pipeline):
        results = set()
        for seed in (1, 2):
            controller = loki_controller(small_pipeline)
            sim = ServingSimulation(
                small_pipeline,
                controller,
                constant_trace(30.0, 10),
                SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=seed),
            )
            results.add(sim.run().total_requests)
        assert len(results) == 2

    def test_overload_reported_as_violations_not_crash(self, small_pipeline):
        controller = loki_controller(small_pipeline, num_workers=2)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            constant_trace(500.0, 8),
            SimulationConfig(num_workers=2, latency_slo_ms=150.0, seed=1),
        )
        summary = sim.run()
        assert summary.slo_violation_ratio > 0.3
        assert summary.total_requests > 0

    def test_workers_scale_with_demand(self, small_pipeline):
        controller = loki_controller(small_pipeline)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            ramp_trace(10.0, 120.0, 40),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=2),
        )
        summary = sim.run()
        early = np.mean([i.active_workers for i in summary.intervals[2:8]])
        late = np.mean([i.active_workers for i in summary.intervals[30:38]])
        assert late > early

    def test_static_control_plane_runs(self, small_pipeline):
        plan = AllocationProblem(small_pipeline, num_workers=10, utilization_target=0.75).solve(50.0)
        control = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, latency_slo_ms=150.0
        )
        sim = ServingSimulation(
            small_pipeline,
            control,
            constant_trace(40.0, 10),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=5),
        )
        summary = sim.run()
        assert summary.total_requests > 200
        assert summary.slo_violation_ratio < 0.5

    def test_branching_pipeline_fanout_accounting(self, branching_pipeline):
        controller = Controller(
            branching_pipeline,
            ControllerConfig(num_workers=12, latency_slo_ms=200.0, demand_quantum_qps=10.0),
        )
        sim = ServingSimulation(
            branching_pipeline,
            controller,
            constant_trace(25.0, 15),
            SimulationConfig(num_workers=12, latency_slo_ms=200.0, seed=4),
        )
        summary = sim.run()
        assert summary.total_requests > 200
        finished = summary.completed_requests + summary.violated_requests
        assert finished == summary.total_requests
        # The detect task fans out to both classify tasks; both must have seen traffic.
        assert sim.task_arrivals.keys() >= {"detect", "classify_a", "classify_b"}
        assert sim.forwarded_queries > summary.total_requests

    def test_heartbeats_update_multiplier_estimates(self, branching_pipeline):
        controller = Controller(
            branching_pipeline,
            ControllerConfig(num_workers=12, latency_slo_ms=200.0, demand_quantum_qps=10.0),
        )
        sim = ServingSimulation(
            branching_pipeline,
            controller,
            constant_trace(25.0, 12),
            SimulationConfig(num_workers=12, latency_slo_ms=200.0, seed=4, heartbeat_interval_s=2.0),
        )
        sim.run()
        # det_hi's profiled factor is 2.5 split 0.6/0.4; the observed factor fed
        # back through heartbeats should stay in a sane range around it.
        estimate = controller.metadata.multiplier_estimate("det_hi")
        assert 1.0 < estimate < 4.0

    def test_drop_policy_affects_outcomes(self, small_pipeline):
        """Under a tight SLO, queueing bursts push queries past their per-task
        budget.  Only opportunistic rerouting reacts: it drops the queries no
        faster spare worker can save (this run's plan has none), and fewer
        requests finish late.  The counts are this seeded run's."""

        def run_with(policy):
            controller = loki_controller(small_pipeline, num_workers=4, slo_ms=80.0)
            sim = ServingSimulation(
                small_pipeline,
                controller,
                constant_trace(300.0, 10),
                SimulationConfig(num_workers=4, latency_slo_ms=80.0, seed=1, drop_policy=policy),
            )
            return sim, sim.run()

        no_drop_sim, no_drop = run_with("no_early_dropping")
        rerouting_sim, rerouting = run_with("opportunistic_rerouting")
        assert no_drop.telemetry["queries.rerouted"] == 0
        assert no_drop_sim.drop_reasons == {}
        assert (no_drop.dropped_requests, no_drop.late_requests) == (0, 1)
        assert rerouting.telemetry["queries.rerouted"] == 0
        assert rerouting_sim.drop_reasons == {"no backup worker can recover the overrun": 54}
        assert (rerouting.dropped_requests, rerouting.late_requests) == (27, 0)
        assert rerouting.total_requests == no_drop.total_requests


class TestOverrunForwarding:
    """A completed batch whose queries overran their per-task budget.

    The planned downstream worker is too slow for the 50 ms the request has
    left; opportunistic rerouting sends each child to a backup worker fast
    enough to make it, or drops the child when there is none.
    """

    PLANNED_ID = "planned-but-unhosted"

    def _complete_overrun_batch(self, small_pipeline, with_backup):
        sim = ServingSimulation(
            small_pipeline,
            loki_controller(small_pipeline),
            constant_trace(40.0, 5),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=1),
            content_model=MultiplicativeContentModel(mode="expected"),
        )
        sim._bootstrap()
        worker = next(w for w in sim.cluster.workers if w.assignment is not None and w.assignment.task == "detect")
        assignment = worker.assignment
        backup_id = next(lid for lid, w in sim.cluster.logical_map.items() if w.assignment.task == "classify")
        table = RoutingTable()
        # planned route: a slow worker nothing hosts, so only a reroute is delivered
        table.add("classify", RoutingEntry(self.PLANNED_ID, 1.0, accuracy=1.0, latency_ms=100.0))
        backups = (BackupEntry(backup_id, "classify", "classify_small", 0.85, 5.0, 50.0),) if with_backup else ()
        sim.routing_plan = RoutingPlan(
            frontend_table=RoutingTable(),
            worker_tables={assignment.logical_id: table},
            backup_tables={"classify": backups},
        )
        now = sim.engine.now_s
        request = Request(0, now - 0.1, 150.0)  # arrived 100 ms ago: 50 ms left
        request.outstanding += 1
        query = sim.new_intermediate_query(request, "detect", now, 1.0)
        query.worker_arrival_s = now - 0.1
        assert (now - query.worker_arrival_s) * 1000.0 > assignment.latency_budget_ms
        children = sum(
            sim.content_model.sample_children(assignment.variant, e, sim.rng)
            for e in small_pipeline.children(assignment.task)
        )
        assert children > 0
        worker.batch = [query]  # executing, as _maybe_start_batch leaves it
        worker._complete_batch(worker.batch)
        # a delivery entry is (time, seq, worker.enqueue, query): the receiving workers
        deliveries = [
            action.__self__
            for _, _, action, query in sim.engine.queue._heap
            if getattr(action, "__func__", None) is SimWorker.enqueue and query.request is request
        ]
        return sim, request, children, deliveries, sim.cluster.resolve(backup_id)

    def test_overrun_child_goes_to_the_backup_worker(self, small_pipeline):
        sim, request, children, deliveries, backup_worker = self._complete_overrun_batch(small_pipeline, True)
        assert deliveries == [backup_worker] * children
        assert sim.telemetry.get("queries.rerouted").value == children
        assert sim.drop_reasons == {}
        assert request.outstanding == children and not request.is_finished

    def test_overrun_child_without_backup_is_dropped(self, small_pipeline):
        sim, request, children, deliveries, _ = self._complete_overrun_batch(small_pipeline, False)
        assert deliveries == []
        assert sim.telemetry.get("queries.rerouted").value == 0
        assert sim.drop_reasons == {"no backup worker can recover the overrun": children}
        assert request.status is RequestStatus.DROPPED


class SpyPolicy(DropPolicy):
    """Records every ``on_forward`` call and forwards."""

    def __init__(self):
        self.calls = []

    def on_forward(self, time_in_task_ms, budget_ms, planned_entry, backups, remaining_slo_ms, rng):
        self.calls.append((time_in_task_ms, planned_entry))
        return FORWARD_DECISION


class TestOnForwardCalls:
    """The worker asks the drop policy about a child only when the parent
    overran its task budget or the child has no planned route, in child
    order; on-time children with a route go straight to the planned worker."""

    #: how long ago each query reached the detect worker: on time, overrun,
    #: on time, overrun
    AGES_MS = (0.0, 100.0, 1.0, 120.0)

    def _complete_batch(self, small_pipeline, routed):
        policy = SpyPolicy()
        sim = ServingSimulation(
            small_pipeline,
            loki_controller(small_pipeline),
            constant_trace(40.0, 5),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=1),
            content_model=MultiplicativeContentModel(mode="expected"),
            drop_policy=policy,
        )
        sim._bootstrap()
        worker = next(w for w in sim.cluster.workers if w.assignment is not None and w.assignment.task == "detect")
        assignment = worker.assignment
        assert self.AGES_MS[2] <= assignment.latency_budget_ms < self.AGES_MS[1]
        hosted = next(lid for lid, w in sim.cluster.logical_map.items() if w.assignment.task == "classify")
        table = RoutingTable()
        planned = RoutingEntry(hosted, 1.0, accuracy=1.0, latency_ms=5.0)
        if routed:
            table.add("classify", planned)
        sim.routing_plan = RoutingPlan(
            frontend_table=RoutingTable(), worker_tables={assignment.logical_id: table}, backup_tables={}
        )
        now = sim.engine.now_s
        batch = []
        for i, age_ms in enumerate(self.AGES_MS):
            request = Request(i, now - age_ms / 1000.0, 150.0)
            request.outstanding += 1
            batch.append(sim.new_intermediate_query(request, "detect", now - age_ms / 1000.0, 1.0))
        (children,) = [count for _, count, _, _ in assignment.fanout]
        worker.batch = batch  # executing, as _maybe_start_batch leaves it
        worker._complete_batch(batch)
        return policy.calls, children, planned

    def test_only_overrun_children_reach_the_policy(self, small_pipeline):
        calls, children, planned = self._complete_batch(small_pipeline, routed=True)
        assert children > 0
        assert calls == [
            (pytest.approx(age_ms), planned) for age_ms in (100.0, 120.0) for _ in range(children)
        ]

    def test_every_child_without_a_route_reaches_the_policy(self, small_pipeline):
        calls, children, _ = self._complete_batch(small_pipeline, routed=False)
        assert calls == [(pytest.approx(age_ms), None) for age_ms in self.AGES_MS for _ in range(children)]


class TestClusterPlanApplication:
    def test_plan_applied_to_physical_workers(self, small_pipeline):
        controller = loki_controller(small_pipeline)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            constant_trace(40.0, 6),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=1),
        )
        sim.run()
        cluster = sim.cluster
        assert cluster.active_workers == controller.current_plan.total_workers
        assert cluster.plan_applications >= 1
        hosted_tasks = {w.assignment.task for w in cluster.workers if w.assignment is not None and w.active}
        assert hosted_tasks == {"detect", "classify"}

    def test_plan_larger_than_cluster_rejected(self, small_pipeline):
        controller = loki_controller(small_pipeline)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            constant_trace(10.0, 3),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=1),
        )
        plan = AllocationProblem(small_pipeline, num_workers=30, utilization_target=1.0).solve(400.0)
        if plan.total_workers > 10:
            with pytest.raises(ValueError):
                sim.cluster.apply_plan(plan, small_pipeline, 0.0)

    def test_stable_mapping_avoids_reloads_for_unchanged_plan(self, small_pipeline):
        controller = loki_controller(small_pipeline)
        sim = ServingSimulation(
            small_pipeline,
            controller,
            constant_trace(40.0, 4),
            SimulationConfig(num_workers=10, latency_slo_ms=150.0, seed=1),
        )
        sim.run()
        plan = controller.current_plan
        loads_before = sim.cluster.model_loads
        sim.cluster.apply_plan(plan, small_pipeline, sim.engine.now_s)
        assert sim.cluster.model_loads == loads_before

    def test_assignments_carry_fanout_thresholds_and_batch_durations(self, branching_pipeline):
        sim = ServingSimulation(
            branching_pipeline,
            loki_controller(branching_pipeline, slo_ms=200.0),
            constant_trace(40.0, 2),
            SimulationConfig(num_workers=10, latency_slo_ms=200.0, seed=1),
        )
        sim._bootstrap()
        assignments = [w.assignment for w in sim.cluster.workers if w.assignment is not None]
        assert {a.task for a in assignments} == {"detect", "classify_a", "classify_b"}
        poisson_edges = 0
        for assignment in assignments:
            variant = assignment.variant
            assert assignment.batch_durations_s == tuple(
                variant.execution_latency_ms(n) / 1000.0 for n in range(1, assignment.batch_size + 1)
            )
            for edge, (child, fixed, mean, threshold) in zip(
                branching_pipeline.children(assignment.task), assignment.fanout
            ):
                assert (child, fixed, mean) == (edge.child, *sim.content_model.fanout(variant, edge))
                assert threshold == (poisson_threshold(mean) if fixed is None else None)
                poisson_edges += fixed is None
        assert poisson_edges > 0
