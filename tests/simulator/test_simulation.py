"""Integration tests for the discrete-event simulator (worker, cluster, frontend, runner)."""

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.baselines import StaticPlanControlPlane
from repro.scenarios import get_scenario
from repro.simulator import ServingSimulation, SimulationConfig
from repro.simulator.network import NetworkModel
from repro.simulator.query import Request
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
        assert model.sample_latency_ms(rng) == 3.0
        assert model.sample_delay_s(rng) == pytest.approx(0.003)

    def test_jitter_bounded(self, rng):
        model = NetworkModel(latency_ms=3.0, jitter_ms=1.0)
        samples = [model.sample_latency_ms(rng) for _ in range(200)]
        assert all(2.0 - 1e-9 <= s <= 4.0 + 1e-9 for s in samples)
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
            expected = max(0.0, 3.0 + float(legacy.uniform(-1.0, 1.0)))
            assert model.sample_latency_ms(new) == expected

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
        assert model.sample_latency_ms(np.random.default_rng(9)) == pytest.approx(4000.0 * plain_s)


class TestScalarGolden:
    #: the smoke scenario's seed-0 summary; the simulator's one data-plane
    #: path must keep reproducing these digits exactly
    GOLDEN = {
        "total_requests": 316,
        "completed_requests": 312,
        "violated_requests": 4,
        "slo_violation_ratio": 0.012658227848101266,
        "mean_accuracy": 1.0,
        "mean_latency_ms": 42.93086954021579,
        "p99_latency_ms": 129.47074337120782,
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
            if w.assignment is not None and w.assignment.child_edges
        )
        assignment = worker.assignment
        now = simulation.engine.now_s
        batch = []
        for i in range(size):
            request = Request(i, now, simulation.pipeline.latency_slo_ms)
            request.add_outstanding(1)  # the parent query itself, as on intake
            query = simulation.new_intermediate_query(request, assignment.task, now, 1.0)
            query.worker_arrival_s = now
            batch.append(query)
        children_per_query = sum(
            simulation.content_model.sample_children(assignment.variant, edge, simulation.rng)
            for edge in assignment.child_edges
        )
        observations_before = worker.factor_observation_count
        observed_before = worker.factor_observation_sum
        calendar_before = len(simulation.engine.queue)
        worker._complete_batch(batch)
        return worker, assignment, batch, children_per_query, {
            "observations": worker.factor_observation_count - observations_before,
            "children_observed": worker.factor_observation_sum - observed_before,
            "scheduled_deliveries": len(simulation.engine.queue) - calendar_before,
        }

    @pytest.mark.parametrize("size", range(1, 9))
    def test_batch_fanout_bookkeeping(self, size):
        worker, assignment, batch, children, counts = self._complete_batch(size)
        assert children > 0
        assert counts == {
            "observations": size,
            "children_observed": size * children,
            "scheduled_deliveries": size * children,
        }
        assert [q.request.outstanding for q in batch] == [children] * size
        assert not any(q.request.is_finished for q in batch)
        accuracy = assignment.variant.accuracy
        assert [q.accuracy_so_far for q in batch] == [accuracy] * size
        assert worker.processed_queries >= size

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
        control = StaticPlanControlPlane(small_pipeline, 10, plan, latency_slo_ms=150.0)
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
        def run_with(policy):
            controller = loki_controller(small_pipeline, num_workers=3)
            sim = ServingSimulation(
                small_pipeline,
                controller,
                constant_trace(150.0, 10),
                SimulationConfig(num_workers=3, latency_slo_ms=150.0, seed=1, drop_policy=policy),
            )
            return sim.run()

        no_drop = run_with("no_early_dropping")
        rerouting = run_with("opportunistic_rerouting")
        assert no_drop.dropped_requests == 0
        # Opportunistic rerouting converts some would-be-late requests into drops/reroutes.
        assert rerouting.dropped_requests >= 0
        assert rerouting.total_requests == pytest.approx(no_drop.total_requests, rel=0.2)


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
