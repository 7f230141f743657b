"""Resilience layer + chaos engine: recovery pins, accounting invariants.

The acceptance pin: on the builtin ``worker_failure`` scenario, retries plus
failover re-queueing recover >= 70% of the requests the drop-only baseline
loses during the fault window, with completed-request p99 degrading < 2x.
The comparison runs with ``no_early_dropping`` so the measured losses are the
fault's own (mid-flight kills and routing black holes), not drop-policy
decisions -- the resilience layer deliberately never second-guesses policy
drops.

Everything else here defends the accounting: completed + dropped + late must
equal submitted no matter how many retries, hedges, timeouts or chaos
crash/repair cycles raced over a request.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.faults import FaultSpec, validate_fault_schedule
from repro.scenarios.registry import get_scenario
from repro.simulator.network import NetworkModel
from repro.simulator.resilience import ResilienceConfig
from repro.simulator.runner import SimulationConfig

import numpy as np

RESILIENT = {"max_retries": 3, "failover_requeue": True}


def _fault_spec():
    """The builtin worker_failure scenario, shrunk for test runtime.

    Lighter peak load than the catalogue entry (0.55 vs 0.9) so the surviving
    fleet has the capacity to absorb re-routed work: at the catalogue's 0.9,
    the fault window is ~120% overloaded and no retry policy can recover
    capacity that does not exist.
    """
    return get_scenario("traffic_worker_failure").with_overrides(
        peak_over_hardware=0.55,
        trace_params={"qps": 1.0, "duration_s": 60},
        drop_policy="no_early_dropping",
        faults=(FaultSpec(kind="worker_failure", at_s=20.0, duration_s=15.0, count=5),),
    )


def _window_drops(summary, start_s=20.0, end_s=40.0):
    return sum(iv.dropped for iv in summary.intervals if start_s <= iv.start_s < end_s)


def _closure(summary):
    return summary.completed_requests + summary.dropped_requests + summary.late_requests


class TestAcceptance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_retries_and_failover_recover_fault_window_losses(self, seed):
        spec = _fault_spec()
        baseline = spec.run(seed=seed)
        resilient = spec.with_overrides(resilience=RESILIENT).run(seed=seed)

        base_drops = _window_drops(baseline)
        res_drops = _window_drops(resilient)
        assert base_drops > 0, "the fault must cost the baseline requests"
        recovered = (base_drops - res_drops) / base_drops
        assert recovered >= 0.70, (
            f"seed {seed}: recovered only {recovered:.1%} of {base_drops} fault-window drops"
        )
        assert resilient.p99_latency_ms < 2.0 * baseline.p99_latency_ms
        # Accounting closes on both sides of the comparison.
        assert _closure(baseline) == baseline.total_requests
        assert _closure(resilient) == resilient.total_requests
        assert resilient.telemetry["resilience.retries"] > 0

    def test_knobs_off_is_bit_identical(self):
        spec = get_scenario("smoke")
        plain = spec.run(seed=3)
        explicit_off = spec.with_overrides(resilience={}).run(seed=3)
        assert plain.telemetry == explicit_off.telemetry
        assert plain.completed_requests == explicit_off.completed_requests
        assert plain.p99_latency_ms == explicit_off.p99_latency_ms
        assert [
            (iv.completed, iv.dropped, iv.accuracy_sum) for iv in plain.intervals
        ] == [(iv.completed, iv.dropped, iv.accuracy_sum) for iv in explicit_off.intervals]

    def test_disabled_config_builds_no_manager(self):
        assert SimulationConfig().resilience is None
        assert not ResilienceConfig().enabled
        sim = get_scenario("smoke").with_overrides(resilience={}).build(seed=0)
        assert sim.resilience is None
        sim = get_scenario("smoke").with_overrides(resilience=RESILIENT).build(seed=0)
        assert sim.resilience is not None


class TestFaultValidation:
    def test_single_fault_larger_than_fleet_rejected(self):
        spec = get_scenario("smoke_failure").with_overrides(
            faults=(FaultSpec(kind="worker_failure", at_s=2.0, duration_s=2.0, count=999),)
        )
        with pytest.raises(ValueError, match="concurrently failed"):
            spec.build(seed=0)

    def test_overlapping_windows_exceeding_fleet_rejected(self):
        faults = (
            FaultSpec(kind="worker_failure", at_s=1.0, duration_s=10.0, count=4),
            FaultSpec(kind="worker_failure", at_s=5.0, duration_s=10.0, count=4),
        )
        with pytest.raises(ValueError, match="concurrently failed"):
            validate_fault_schedule(faults, num_workers=6)

    def test_sequential_windows_pass(self):
        faults = (
            FaultSpec(kind="worker_failure", at_s=1.0, duration_s=4.0, count=4),
            # Starts exactly when the first recovers: capacity is freed first.
            FaultSpec(kind="worker_failure", at_s=5.0, duration_s=4.0, count=4),
        )
        validate_fault_schedule(faults, num_workers=6)

    def test_unrecovered_fault_holds_capacity_forever(self):
        faults = (
            FaultSpec(kind="worker_failure", at_s=1.0, duration_s=0.0, count=4),
            FaultSpec(kind="worker_failure", at_s=100.0, duration_s=1.0, count=4),
        )
        with pytest.raises(ValueError, match="concurrently failed"):
            validate_fault_schedule(faults, num_workers=6)

    def test_crash_restart_counts_toward_concurrency(self):
        faults = (
            FaultSpec(kind="worker_failure", at_s=1.0, duration_s=20.0, count=4),
            FaultSpec(kind="crash_restart", at_s=5.0, duration_s=10.0, count=3),
        )
        with pytest.raises(ValueError, match="concurrently failed"):
            validate_fault_schedule(faults, num_workers=6)

    def test_kind_parameter_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="crash_restart", at_s=0.0, duration_s=10.0, mttf_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash_restart", at_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="worker_slowdown", at_s=0.0, duration_s=5.0, magnitude=0.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="network_delay_spike", at_s=0.0, duration_s=5.0, magnitude=0.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="not_a_fault", at_s=0.0)


class TestRecoveryGuard:
    def test_stale_recovery_does_not_resurrect_refailed_worker(self):
        """A recovery closure must only undo its *own* failure epoch."""
        from repro.scenarios.faults import schedule_runtime_faults

        sim = get_scenario("smoke").build(seed=0)
        schedule_runtime_faults(
            sim,
            [
                FaultSpec(kind="worker_failure", at_s=1.0, duration_s=5.0, count=1),
                FaultSpec(kind="worker_failure", at_s=3.0, duration_s=10.0, count=1),
            ],
        )
        w0 = sim.cluster.workers[0]
        # An out-of-band recovery at t=2 (as a chaos process could produce)
        # frees w0 so the t=3 fault re-fails it with a newer epoch.
        sim.engine.schedule(2.0, lambda: sim.cluster.recover_worker("w0"))
        sim.engine.run(until_s=2.5)
        assert not w0.failed
        sim.engine.run(until_s=3.5)
        assert w0.failed and w0.fail_epoch == 2
        # The first fault's recovery fires at t=6; without the epoch guard it
        # would resurrect w0 nine seconds early.
        sim.engine.run(until_s=7.0)
        assert w0.failed, "stale recovery resurrected a re-failed worker"
        sim.engine.run(until_s=14.0)
        assert not w0.failed

    def test_partial_fleet_recovery_only_recovers_own_victims(self):
        from repro.scenarios.faults import schedule_runtime_faults

        sim = get_scenario("smoke").build(seed=0)
        schedule_runtime_faults(
            sim,
            [
                FaultSpec(kind="worker_failure", at_s=1.0, duration_s=20.0, count=4),
                # Over-count at runtime: only 2 of 6 workers are still up, so
                # this fault can fail (and later recover) exactly those 2.
                FaultSpec(kind="worker_failure", at_s=2.0, duration_s=2.0, count=2),
            ],
        )
        sim.engine.run(until_s=2.5)
        assert sim.cluster.failed_workers == 6
        sim.engine.run(until_s=5.0)
        assert sim.cluster.failed_workers == 4, "second fault's recovery touched foreign victims"
        sim.engine.run(until_s=22.0)
        assert sim.cluster.failed_workers == 0


class TestChaosEngine:
    def test_crash_restart_is_seed_deterministic(self):
        spec = get_scenario("chaos_crash_restart")
        a = spec.run(seed=0)
        b = spec.run(seed=0)
        assert a.fault_timeline == b.fault_timeline
        assert a.telemetry == b.telemetry
        c = spec.run(seed=1)
        assert c.fault_timeline != a.fault_timeline

    def test_crash_restart_closes_accounting(self):
        summary = get_scenario("chaos_crash_restart").run(seed=0)
        assert _closure(summary) == summary.total_requests
        assert summary.telemetry["faults.injected"] > 0
        assert summary.telemetry["faults.injected"] == summary.telemetry["faults.recovered"]
        crashes = [e for e in summary.fault_timeline if e[1].startswith("crash:")]
        recoveries = [e for e in summary.fault_timeline if e[1].startswith("recover:")]
        assert len(crashes) == len(recoveries) == int(summary.telemetry["faults.injected"])

    def test_slowdown_degrades_service(self):
        spec = get_scenario("smoke").with_overrides(
            faults=(FaultSpec(kind="worker_slowdown", at_s=1.0, duration_s=8.0, count=6, magnitude=4.0),)
        )
        calm = get_scenario("smoke").run(seed=0)
        slow = spec.run(seed=0)
        assert slow.telemetry["faults.slowdowns"] == 6
        assert _closure(slow) == slow.total_requests
        assert slow.mean_latency_ms > calm.mean_latency_ms
        assert any(label.startswith("slowdown:") for _, label in slow.fault_timeline)

    def test_network_spike_raises_latency(self):
        model = NetworkModel(latency_ms=2.0, jitter_ms=0.0)
        base = model.sample_delay_s()
        model.delay_scale = 5.0
        assert model.sample_delay_s() == pytest.approx(5 * base)
        assert model.sample_delay_s() * 1000.0 == pytest.approx(10.0)
        model.delay_scale = 1.0
        assert model.sample_delay_s() == base

    def test_network_spike_scales_jittered_draws(self):
        model = NetworkModel(latency_ms=2.0, jitter_ms=0.5)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        plain = model.sample_delay_s(rng_a)
        model.delay_scale = 3.0
        assert model.sample_delay_s(rng_b) == pytest.approx(3 * plain)

    def test_spike_scenario_counts_and_restores(self):
        summary = get_scenario("chaos_stragglers").run(seed=0)
        assert summary.telemetry["faults.network_spikes"] == 1
        labels = [label for _, label in summary.fault_timeline]
        assert any(label.startswith("net-spike:") for label in labels)
        assert "net-spike-end" in labels
        assert _closure(summary) == summary.total_requests


class TestResiliencePolicies:
    def test_dropped_on_fault_counter_object_path(self):
        sim = get_scenario("smoke_failure").build(seed=0)
        summary = sim.run()
        fault_drops = sim.drop_reasons.get("worker failed", 0)
        assert fault_drops > 0
        assert summary.telemetry["queries.dropped_on_fault"] == fault_drops

    def test_timeouts_force_finish_once(self):
        spec = get_scenario("smoke").with_overrides(
            resilience={"request_timeout_ms": 40.0}
        )
        summary = spec.run(seed=0)
        assert summary.telemetry["resilience.timeouts"] > 0
        assert _closure(summary) == summary.total_requests
        # Timed-out requests are dropped requests.
        assert summary.dropped_requests >= int(summary.telemetry["resilience.timeouts"])

    def test_hedging_dedups_first_completion_wins(self):
        spec = get_scenario("smoke").with_overrides(
            resilience={"hedging": True, "hedge_delay_ms": 30.0}
        )
        summary = spec.run(seed=0)
        hedges = summary.telemetry["resilience.hedges"]
        assert hedges > 0
        assert summary.telemetry["resilience.hedge_wins"] <= hedges
        assert summary.telemetry["resilience.hedge_absorbed"] <= hedges
        assert _closure(summary) == summary.total_requests

    def test_hedging_with_derived_delay(self):
        summary = get_scenario("smoke").with_overrides(resilience={"hedging": True}).run(seed=0)
        assert _closure(summary) == summary.total_requests

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(retry_backoff_mult=0.5)
        with pytest.raises(ValueError):
            ResilienceConfig(request_timeout_ms=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(hedge_delay_ms=-1.0)


#: every policy of the layer, each alone; the counter each must move
_POLICIES = {
    "retries_failover": ({"max_retries": 2, "failover_requeue": True}, None),
    "timeout": ({"request_timeout_ms": 100.0}, "resilience.timeouts"),
    "hedging": ({"hedging": True}, "resilience.hedges"),
}


class TestResilienceOnEveryRun:
    """The layer applies to every run: there is one data-plane path, so no
    scenario or execution option can switch retries, timeouts or hedging off."""

    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    @pytest.mark.parametrize(
        "scenario",
        [
            "smoke",
            "smoke_failure",
            "chaos_crash_restart",
            "chaos_stragglers",
            "jsq_heterogeneous",
            "validation_uniform",
        ],
    )
    def test_policy_applies_and_closes_accounting(self, scenario, policy):
        knobs, counter = _POLICIES[policy]
        spec = get_scenario(scenario)
        sim = spec.with_overrides(
            trace_params={**spec.trace_params, "duration_s": 8}, resilience=knobs
        ).build(seed=0)
        summary = sim.run()
        assert sim.resilience is not None
        assert summary.total_requests == sim.frontend.total_submitted
        assert _closure(summary) == summary.total_requests
        if counter is not None:
            assert summary.telemetry[counter] > 0


class TestAccountingInvariants:
    """Hypothesis: retries/hedges/timeouts never double-count a request."""

    @given(
        seed=st.integers(0, 2**16),
        max_retries=st.integers(0, 3),
        failover=st.booleans(),
        hedging=st.booleans(),
        timeout_ms=st.sampled_from([None, 60.0, 120.0]),
        chaos=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_closure_under_chaos(self, seed, max_retries, failover, hedging, timeout_ms, chaos):
        faults = ()
        if chaos:
            faults = (
                FaultSpec(kind="crash_restart", at_s=1.0, duration_s=5.0, count=2, mttf_s=2.0, mttr_s=0.5),
                FaultSpec(kind="worker_slowdown", at_s=2.0, duration_s=3.0, count=1, magnitude=3.0),
            )
        spec = get_scenario("smoke").with_overrides(
            trace_params={"qps": 20.0, "duration_s": 8},
            faults=faults,
            resilience={
                "max_retries": max_retries,
                "failover_requeue": failover,
                "hedging": hedging,
                "request_timeout_ms": timeout_ms,
            },
        )
        sim = spec.build(seed=seed)
        summary = sim.run()
        submitted = sim.frontend.total_submitted
        assert summary.total_requests == submitted
        assert _closure(summary) == submitted, (
            f"accounting leak: {summary.completed_requests}+{summary.dropped_requests}"
            f"+{summary.late_requests} != {submitted}"
        )

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_snapshot_monotonicity_under_chaos(self, seed):
        """At every 1s checkpoint: finished <= submitted (in-flight >= 0),
        and the run drains to exact equality."""
        spec = get_scenario("smoke").with_overrides(
            trace_params={"qps": 20.0, "duration_s": 6},
            faults=(
                FaultSpec(kind="crash_restart", at_s=1.0, duration_s=4.0, count=2, mttf_s=1.5, mttr_s=0.5),
            ),
            resilience={"max_retries": 2, "failover_requeue": True, "request_timeout_ms": 100.0},
        )
        sim = spec.build(seed=seed)
        sim._bootstrap()
        sim._schedule_workload()

        def finished():
            return sum(
                int(sim.telemetry.counter(name).value)
                for name in ("requests.completed", "requests.dropped", "requests.late")
            )

        horizon = sim.trace.duration_s + sim.config.drain_s
        t = 1.0
        while t < horizon:
            sim.engine.run(until_s=t)
            assert finished() <= sim.frontend.total_submitted
            t += 1.0
        sim.engine.run(until_s=horizon)
        assert finished() == sim.frontend.total_submitted

    def test_interval_counts_sum_to_totals(self):
        summary = get_scenario("chaos_crash_restart").run(seed=2)
        assert sum(iv.completed for iv in summary.intervals) == summary.completed_requests
        assert sum(iv.dropped for iv in summary.intervals) == summary.dropped_requests
        assert math.isfinite(summary.p99_latency_ms)
