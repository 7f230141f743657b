"""Queue-aware routing (jsq/adaptive_p2c) and SLO-feedback allocation.

Unit tests for the dynamic choosers and the PID-style feedback policy, plus
the pinned end-to-end comparisons of the feedback-control study:

* live ``jsq`` beats table-built ``least_loaded`` on p99 latency in the
  ``jsq_heterogeneous`` scenario, and
* ``slo_feedback`` reduces SLO violations vs the same allocator with the
  gains zeroed ("static allocation") on ``slo_feedback_flash_crowd``.
"""

import math

import pytest

from repro.control import (
    AdaptiveP2CChooser,
    ControlContext,
    ControlPlaneEngine,
    JSQChooser,
    ROUTING_POLICIES,
    SLOFeedbackPolicy,
    TelemetryWindow,
)
from repro.core.load_balancer import RoutingEntry, RoutingTable
from repro.scenarios import get_scenario


def entries(n=3):
    return tuple(RoutingEntry(f"w{i}", 1.0 / n, 1.0, 10.0) for i in range(n))


class CountingProbe:
    """queue_snapshot stub with adjustable backlogs and a call counter."""

    def __init__(self, backlogs, rates=None):
        self.backlogs = list(backlogs)
        self.rates = list(rates) if rates is not None else [100.0] * len(self.backlogs)
        self.calls = 0

    def __call__(self, worker_ids):
        self.calls += 1
        index = {f"w{i}": i for i in range(len(self.backlogs))}
        return (
            [self.backlogs[index[w]] for w in worker_ids],
            [self.rates[index[w]] for w in worker_ids],
        )


class TestRegistries:
    def test_feedback_policies_registered(self):
        assert {"jsq", "adaptive_p2c"} <= set(ROUTING_POLICIES)


class TestJSQChooser:
    def test_without_probe_declines(self, rng):
        chooser = JSQChooser()
        assert chooser.choose_index(entries(), rng) is None

    def test_picks_least_expected_wait(self, rng):
        chooser = JSQChooser()
        chooser.bind_probe(CountingProbe([5, 0, 3]))
        assert chooser.choose_index(entries(), rng) == 1

    def test_normalises_by_service_rate(self, rng):
        # backlog 8 at 400 qps waits less than backlog 3 at 50 qps
        chooser = JSQChooser()
        chooser.bind_probe(CountingProbe([8, 3], rates=[400.0, 50.0]))
        assert chooser.choose_index(entries(2), rng) == 0

    def test_routes_around_dead_workers(self, rng):
        chooser = JSQChooser()
        chooser.bind_probe(CountingProbe([math.inf, 7], rates=[0.0, 100.0]))
        assert chooser.choose_index(entries(2), rng) == 1

    def test_all_dead_falls_back_to_static(self, rng):
        chooser = JSQChooser()
        chooser.bind_probe(CountingProbe([math.inf, math.inf], rates=[0.0, 0.0]))
        assert chooser.choose_index(entries(2), rng) is None

    def test_consumes_no_rng(self, rng):
        chooser = JSQChooser()
        chooser.bind_probe(CountingProbe([1, 2, 3]))
        state = rng.bit_generator.state
        chooser.choose_index(entries(), rng)
        assert rng.bit_generator.state == state

class TestAdaptiveP2C:
    def test_stale_tolerance_bounds_probe_rate(self, rng):
        chooser = AdaptiveP2CChooser(stale_draws=8)
        probe = CountingProbe([0, 0, 0])
        chooser.bind_probe(probe)
        table_entries = entries()  # one compiled tuple, as a live table holds
        for _ in range(16):
            assert chooser.choose_index(table_entries, rng) is not None
        assert probe.calls == 2  # 16 draws / 8-per-refresh

    def test_prefers_shorter_of_two_sampled_queues(self, rng):
        chooser = AdaptiveP2CChooser(stale_draws=1)
        chooser.bind_probe(CountingProbe([50, 0]))
        picks = [chooser.choose_index(entries(2), rng) for _ in range(50)]
        # whenever the two sampled candidates differ the short queue wins, so
        # the long queue gets at most the i==j collisions (~1/2 of draws)
        assert picks.count(1) > picks.count(0)

    def test_rejects_bad_stale_draws(self):
        with pytest.raises(ValueError):
            AdaptiveP2CChooser(stale_draws=0)

    def test_never_routes_to_dead_worker_when_live_one_exists(self, rng):
        """Regression: both sampled candidates dead -> fall back to a live
        worker instead of routing into the failed pair."""
        chooser = AdaptiveP2CChooser(stale_draws=1)
        chooser.bind_probe(
            CountingProbe([math.inf, math.inf, math.inf, 2], rates=[0.0, 0.0, 0.0, 100.0])
        )
        table_entries = entries(4)
        for _ in range(40):
            assert chooser.choose_index(table_entries, rng) == 3


class TestDynamicTablePlumbing:
    def test_policy_attaches_chooser_to_all_tables(self, small_pipeline):
        from repro.control import JSQRouting
        from repro.core.load_balancer import workers_from_plan
        from repro.core.allocation import AllocationProblem

        plan = AllocationProblem(small_pipeline, num_workers=10, utilization_target=1.0).solve(40.0)
        policy = JSQRouting(small_pipeline)
        routing = policy.build(workers_from_plan(plan, small_pipeline), 40.0)
        assert routing.frontend_table.dynamic is policy.chooser
        assert all(t.dynamic is policy.chooser for t in routing.worker_tables.values())

    def test_table_falls_back_when_chooser_declines(self, rng):
        table = RoutingTable()
        for entry in entries(2):
            table.add("detect", entry)
        table.set_dynamic(JSQChooser())  # no probe bound -> declines
        assert table.choose("detect", rng) is not None

    def test_table_uses_chooser_when_bound(self, rng):
        table = RoutingTable()
        for entry in entries(3):
            table.add("detect", entry)
        chooser = JSQChooser()
        chooser.bind_probe(CountingProbe([9, 9, 0]))
        table.set_dynamic(chooser)
        assert table.choose("detect", rng).worker_id == "w2"


def ctx_with(violation_rate=0.0, p99=math.nan, window_s=1.0, finished=100):
    violations = int(round(violation_rate * finished))
    return ControlContext(
        now_s=0.0,
        window=TelemetryWindow(
            window_s=window_s,
            completed=finished - violations,
            late=violations,
            p99_latency_ms=p99,
        ),
        latency_slo_ms=150.0,
    )


class TestSLOFeedbackPolicy:
    def test_scale_rises_on_violations(self):
        policy = SLOFeedbackPolicy()
        scale = policy.observe(ctx_with(violation_rate=0.6, p99=600.0))
        assert scale > 1.0
        assert policy.error > 0.0

    def test_windowed_tail_boosts_even_without_violations(self):
        """p99 is now a *windowed* quantile, so a heavy tail in the current
        window is a live signal and legitimately raises the error even while
        the violation counters are still clean (requests finishing late in
        the *next* window are exactly what the latency term front-runs)."""
        policy = SLOFeedbackPolicy()
        policy.observe(ctx_with(violation_rate=0.0, p99=900.0))
        assert policy.error > 0.0

    def test_no_latency_signal_does_not_boost(self):
        """An empty window (NaN p99) contributes no latency term."""
        policy = SLOFeedbackPolicy()
        policy.observe(ctx_with(violation_rate=0.0, p99=math.nan))
        assert policy.error == pytest.approx(-policy.violation_target)

    def test_boost_decays_after_transient(self):
        """Once the transient passes, windowed p99 drops back below the SLO
        on its own (no violation-gating needed) and the boost bleeds away."""
        policy = SLOFeedbackPolicy()
        for _ in range(5):
            policy.observe(ctx_with(violation_rate=0.8, p99=700.0))
        peak = policy.scale
        assert peak == policy.scale_max
        for _ in range(200):
            policy.observe(ctx_with(violation_rate=0.0, p99=60.0))
        assert policy.scale < peak
        assert policy.scale == policy.scale_min

    def test_scale_is_quantised(self):
        policy = SLOFeedbackPolicy(scale_quantum=0.25)
        policy.observe(ctx_with(violation_rate=0.23, p99=math.nan))
        assert (policy.scale / 0.25) == pytest.approx(round(policy.scale / 0.25))

    def test_zero_gains_disable_urgent_reallocation(self, small_pipeline):
        control = ControlPlaneEngine(
            small_pipeline,
            SLOFeedbackPolicy(kp=0.0, ki=0.0),
            num_workers=10,
            reallocation_interval_s=10.0,
        )
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        control.allocation.error = 2.0  # even a huge error must not trigger
        assert not control.allocation.should_reallocate(5.0)

    def test_observes_every_tick_not_just_allocations(self, small_pipeline):
        """Regression: the PID integrates each control period's window, so a
        violation burst between reallocations is seen (and can trigger an
        urgent reallocation) even though no allocation ran during it."""
        from repro.telemetry import TelemetryRegistry

        control = ControlPlaneEngine(
            small_pipeline,
            SLOFeedbackPolicy(),
            num_workers=10,
            reallocation_interval_s=10.0,
        )
        registry = TelemetryRegistry()
        control.attach_telemetry(registry)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        late = registry.counter("requests.late")
        latency = registry.histogram("requests.latency_ms")
        for _ in range(50):
            latency.observe(500.0)
        late.value = 50  # a violation burst lands in the 1..2 s window
        control.step(2.0)  # ordinary tick, long before the 10 s interval
        policy = control.allocation
        assert policy.error > 0.0 and policy.scale > 1.0

    def test_factory_passes_all_documented_knobs(self, small_pipeline):
        """Regression: every SLOFeedbackPolicy knob is reachable through
        control_overrides (the factory's documented pass-through)."""
        from repro.scenarios.spec import make_slo_feedback

        control = make_slo_feedback(
            small_pipeline, 10, 150.0, violation_target=0.1, scale_quantum=0.5, kp=2.0
        )
        policy = control.allocation
        assert policy.violation_target == 0.1
        assert policy.scale_quantum == 0.5
        assert policy.kp == 2.0

    def test_urgent_reallocation_with_gains(self, small_pipeline):
        control = ControlPlaneEngine(
            small_pipeline,
            SLOFeedbackPolicy(urgent_error=0.25, urgent_interval_s=1.0),
            num_workers=10,
            reallocation_interval_s=10.0,
        )
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        control.allocation.error = 0.5
        assert not control.allocation.should_reallocate(0.5)  # urgent interval not yet
        assert control.allocation.should_reallocate(1.5)  # well before the 10 s interval


class TestPinnedComparisons:
    """The acceptance comparisons of the feedback-control study."""

    @staticmethod
    def _jsq_and_least_loaded(seed):
        spec = get_scenario("jsq_heterogeneous")
        assert spec.control_overrides["routing_policy"] == "jsq"
        jsq = spec.run(seed=seed)
        least_loaded = spec.with_overrides(
            control_overrides={"routing_policy": "least_loaded"}
        ).run(seed=seed)
        return jsq, least_loaded

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jsq_beats_least_loaded_p99(self, seed):
        """All-request p99 (late and dropped requests included), per seed."""
        jsq, least_loaded = self._jsq_and_least_loaded(seed)
        jsq_p99 = jsq.telemetry["requests.latency_ms.p99"]
        ll_p99 = least_loaded.telemetry["requests.latency_ms.p99"]
        assert jsq_p99 < ll_p99, f"seed {seed}: jsq p99 {jsq_p99:.1f} >= least_loaded {ll_p99:.1f}"

    @pytest.mark.slow
    def test_jsq_beats_least_loaded_completed_p99_on_average(self):
        """Completed-only p99, averaged over seeds 0-7.

        Per seed this comparison is within a few ms and flips on single seeds
        (seed 3 and seed 1 have each gone the other way), so the claim is
        about the mean.
        """
        runs = [self._jsq_and_least_loaded(seed) for seed in range(8)]
        jsq_mean = sum(jsq.p99_latency_ms for jsq, _ in runs) / len(runs)
        ll_mean = sum(ll.p99_latency_ms for _, ll in runs) / len(runs)
        assert jsq_mean < ll_mean, f"mean completed p99: jsq {jsq_mean:.1f} >= least_loaded {ll_mean:.1f}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_slo_feedback_reduces_violations_vs_static(self, seed):
        spec = get_scenario("slo_feedback_flash_crowd")
        feedback = spec.run(seed=seed)
        static = spec.with_overrides(control_overrides={"kp": 0.0, "ki": 0.0}).run(seed=seed)
        assert feedback.slo_violation_ratio < static.slo_violation_ratio, (
            f"seed {seed}: feedback {feedback.slo_violation_ratio:.4f} >= "
            f"static {static.slo_violation_ratio:.4f}"
        )
        assert (
            feedback.telemetry["requests.latency_ms.p99"]
            < static.telemetry["requests.latency_ms.p99"]
        )
