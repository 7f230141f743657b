"""Tests for the scenario layer: specs, registry, faults, determinism."""

import dataclasses
import pickle

import pytest

from repro.scenarios import (
    FaultSpec,
    ScenarioSpec,
    apply_trace_faults,
    get_scenario,
    register,
    scenario_names,
)
from repro.simulator import SimulationConfig
from repro.workloads import constant_trace


TINY = dict(
    pipeline="single_task",
    num_workers=6,
    slo_ms=150.0,
    trace="constant",
    trace_params={"qps": 30.0, "duration_s": 8},
)


class TestRegistry:
    def test_builtin_catalogue_is_rich_enough(self):
        names = scenario_names()
        # The acceptance bar: at least six distinct scenarios runnable by
        # name, including the bursty/fault ones called out in the issue.
        assert len(names) >= 6
        for required in ("traffic_azure_mmpp", "traffic_flash_crowd", "traffic_worker_failure"):
            assert required in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("not_a_scenario")

    def test_double_registration_rejected(self):
        spec = ScenarioSpec(name="smoke")  # name collision with the builtin
        with pytest.raises(ValueError):
            register(spec)

    def test_every_builtin_builds(self):
        # Building (not running) must work for the whole catalogue: pipeline,
        # trace, control plane, drop policy and faults all resolve.
        for name in scenario_names():
            spec = get_scenario(name)
            if spec.peak_over_hardware is not None:
                # Skip the capacity MILP for the heavyweight specs; their
                # composition is covered by the fig5/6-style harness tests.
                spec = spec.with_overrides(peak_over_hardware=None)
            simulation = spec.build(seed=0)
            assert simulation.trace.duration_s > 0

    def test_specs_are_picklable(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestScenarioSpec:
    def test_run_returns_summary(self):
        spec = ScenarioSpec(name="tiny", **TINY)
        summary = spec.run(seed=0)
        assert summary.total_requests > 100
        finished = summary.completed_requests + summary.violated_requests
        assert finished == summary.total_requests

    def test_with_overrides_replaces_fields(self):
        spec = ScenarioSpec(name="tiny", **TINY)
        smaller = spec.with_overrides(num_workers=3)
        assert smaller.num_workers == 3
        assert spec.num_workers == 6

    def test_baseline_system_gets_no_early_dropping_default(self):
        loki = ScenarioSpec(name="l", **TINY)
        proteus = ScenarioSpec(name="p", system="proteus", **TINY)
        assert loki.resolved_drop_policy() == "opportunistic_rerouting"
        assert proteus.resolved_drop_policy() == "no_early_dropping"

    def test_unknown_system_rejected(self):
        spec = ScenarioSpec(name="bad", system="clipper", **TINY)
        with pytest.raises(KeyError):
            spec.build(0)

    def test_unknown_trace_rejected(self):
        spec = ScenarioSpec(name="bad", pipeline="single_task", trace="nonexistent")
        with pytest.raises(KeyError):
            spec.build(0)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("dispatch_mode", "batched"),
            ("engine", "calendar"),
            ("request_path", "columnar"),
            ("batch_route_chunk", 64),
        ],
    )
    @pytest.mark.parametrize(
        "channel", ["spec_field", "with_overrides", "sim_overrides", "simulation_config"]
    )
    def test_removed_execution_path_options_raise(self, option, value, channel):
        # The simulator has one execution path: a stale sweep config that
        # still selects another must fail loudly, not silently run the default.
        with pytest.raises(TypeError):
            if channel == "spec_field":
                ScenarioSpec(name="stale", **TINY, **{option: value})
            elif channel == "with_overrides":
                ScenarioSpec(name="stale", **TINY).with_overrides(**{option: value})
            elif channel == "sim_overrides":
                ScenarioSpec(name="stale", sim_overrides={option: value}, **TINY).build(0)
            else:
                SimulationConfig(**{option: value})


class TestDeterminism:
    """Guards the vectorized-arrivals refactor against event-ordering drift."""

    @pytest.mark.parametrize("scenario", ["smoke", "smoke_failure"])
    def test_same_spec_same_seed_is_byte_identical(self, scenario):
        spec = get_scenario(scenario)
        first = spec.run(seed=3)
        second = spec.run(seed=3)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_mmpp_scenario_deterministic(self):
        spec = ScenarioSpec(
            name="tiny_mmpp",
            arrival_process="mmpp",
            arrival_params={"burst_intensity": 2.5},
            **TINY,
        )
        assert pickle.dumps(spec.run(seed=1)) == pickle.dumps(spec.run(seed=1))

    def test_different_seeds_differ(self):
        spec = get_scenario("smoke")
        assert spec.run(seed=0).total_requests != spec.run(seed=1).total_requests


class TestFaults:
    def test_demand_surge_scales_trace_window(self):
        trace = constant_trace(10.0, 20)
        surged = apply_trace_faults(trace, [FaultSpec(kind="demand_surge", at_s=5.0, duration_s=5.0, magnitude=3.0)])
        assert surged.qps[4] == pytest.approx(10.0)
        assert surged.qps[5] == pytest.approx(30.0)
        assert surged.qps[9] == pytest.approx(30.0)
        assert surged.qps[10] == pytest.approx(10.0)
        # The original trace is untouched.
        assert trace.qps[5] == pytest.approx(10.0)

    def test_worker_failure_degrades_and_recovers(self):
        base = ScenarioSpec(name="nofault", **TINY)
        faulty = base.with_overrides(
            name="fault",
            faults=(FaultSpec(kind="worker_failure", at_s=3.0, duration_s=2.0, count=2),),
        )
        simulation = faulty.build(seed=0)
        summary = simulation.run()
        healthy = base.run(seed=0)
        assert simulation.cluster.fault_events == 2
        assert simulation.cluster.failed_workers == 0  # recovered by the end
        assert summary.violated_requests > healthy.violated_requests
        # Bookkeeping survives the disruption: nothing is left in flight.
        assert summary.completed_requests + summary.violated_requests == summary.total_requests

    def test_failure_fails_over_and_recovery_restores_hosting(self):
        """Regression: the fleet mapping is refreshed on failure (failover
        onto spare workers) and on recovery, without waiting for the control
        plane to publish a new plan under unchanged demand."""
        spec = ScenarioSpec(
            name="failover",
            faults=(FaultSpec(kind="worker_failure", at_s=3.0, duration_s=2.0, count=1),),
            **TINY,
        )
        simulation = spec.build(seed=0)
        simulation.run()
        # Spares absorbed the failed logical worker immediately: nothing
        # routed into the void for the rest of the run.
        assert simulation.cluster.unhosted_logical == 0
        assert not any("not hosted" in reason for reason in simulation.drop_reasons)
        # Both the failure and the recovery re-applied the plan.
        assert simulation.cluster.plan_applications >= 3

    def test_failure_without_recovery_keeps_workers_down(self):
        spec = ScenarioSpec(
            name="perma_fail",
            faults=(FaultSpec(kind="worker_failure", at_s=3.0, duration_s=0.0, count=1),),
            **TINY,
        )
        simulation = spec.build(seed=0)
        simulation.run()
        assert simulation.cluster.failed_workers == 1

    def test_resolved_spec_applies_surge_exactly_once(self):
        """resolved() folds demand surges into the trace and must not leave
        them behind to be applied a second time at build()."""
        spec = ScenarioSpec(
            name="surge_resolve",
            faults=(FaultSpec(kind="demand_surge", at_s=2.0, duration_s=2.0, magnitude=3.0),),
            **TINY,
        )
        resolved = spec.resolved()
        assert all(f.kind != "demand_surge" for f in resolved.faults)
        assert resolved.build(0).trace.qps[2] == pytest.approx(90.0)
        assert pickle.dumps(resolved.run(seed=4)) == pickle.dumps(spec.run(seed=4))

    def test_resolved_spec_keeps_runtime_faults(self):
        spec = ScenarioSpec(
            name="fail_resolve",
            faults=(FaultSpec(kind="worker_failure", at_s=3.0, duration_s=2.0, count=1),),
            **TINY,
        )
        resolved = spec.resolved()
        assert len(resolved.faults) == 1
        assert pickle.dumps(resolved.run(seed=2)) == pickle.dumps(spec.run(seed=2))

    def test_loading_worker_snapshot_folds_remaining_load_time(self):
        """Regression: a worker whose model is still loading (cold start or a
        just-recovered rehost) used to report full service rate with zero
        backlog, so jsq/adaptive_p2c dogpiled it.  The probe now folds the
        remaining load time into the backlog as rate-equivalent queries."""
        spec = ScenarioSpec(name="loading_probe", **TINY)
        simulation = spec.build(seed=0)
        simulation._bootstrap()
        cluster = simulation.cluster
        logical_id = sorted(cluster.logical_map)[0]
        worker = cluster.logical_map[logical_id]
        rate = worker.service_rate_qps
        assert rate > 0.0
        # Loaded and idle: plain queue count.
        worker.available_at_s = simulation.engine.now_s
        assert cluster.queue_snapshot([logical_id])[0][0] == 0
        # Mid-load (as after a recovery rehost): the 2 s of remaining load
        # time shows up as rate-equivalent backlog.
        worker.available_at_s = simulation.engine.now_s + 2.0
        backlogs, rates = cluster.queue_snapshot([logical_id])
        assert rates[0] == rate
        assert backlogs[0] == pytest.approx(rate * 2.0)

    def test_recover_resets_factor_observations(self):
        """A recovered worker must not leak pre-failure multiplicative-factor
        observations into its first post-recovery heartbeat."""
        spec = ScenarioSpec(name="recover_reset", **TINY)
        simulation = spec.build(seed=0)
        simulation._bootstrap()
        worker = simulation.cluster.workers[0]
        worker.factor_observation_sum = 42.0
        worker.factor_observation_count = 7
        worker.fail()
        worker.recover()
        assert worker.factor_observation_sum == 0.0
        assert worker.factor_observation_count == 0
        assert worker.heartbeat() is None

    def test_jsq_fault_run_does_not_dogpile_recovering_worker(self):
        """Fault-scenario regression for the loading-aware probe: with jsq
        routing, a mid-run failure + recovery must not make things worse than
        the failure alone warrants — every request still resolves, and drops
        blamed on unhosted logical workers stay absent after the rehost."""
        spec = ScenarioSpec(
            name="jsq_fault",
            control_overrides={"routing_policy": "jsq"},
            faults=(FaultSpec(kind="worker_failure", at_s=3.0, duration_s=2.0, count=1),),
            **TINY,
        )
        simulation = spec.build(seed=0)
        summary = simulation.run()
        assert simulation.cluster.failed_workers == 0
        assert summary.completed_requests + summary.violated_requests == summary.total_requests
        assert not any("not hosted" in reason for reason in simulation.drop_reasons)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="cosmic_ray", at_s=1.0)

    def test_invalid_fault_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="worker_failure", at_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="worker_failure", at_s=1.0, count=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="demand_surge", at_s=1.0, magnitude=0.0)
