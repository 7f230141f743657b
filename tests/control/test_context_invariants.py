"""Property tests: the physical fleet obeys conservation laws on real runs.

Hypothesis drives small end-to-end simulations, with and without a worker
failing mid-run, and reads every physical worker's queue at a fixed cadence:

* queue lengths and in-flight counts are never negative, at any point of a
  run;
* queries are conserved: the live backlog on the workers never exceeds what
  has been submitted but not finished, and once the run drains completely
  the request accounting closes exactly (backlog == 0, completed + late +
  dropped == submitted).

Two live reads of the control plane are pinned on the same runs: the
per-tick telemetry windows are disjoint deltas that add up to the run's
counters, and the dispatch-time ``queue_snapshot`` probe reports what the
hosting workers hold.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import get_scenario

#: the plain smoke run, and the same fleet losing one worker at 4 s for 3 s
SCENARIOS = ("smoke", "smoke_failure")


def run_with_samples(scenario: str, qps: float, seed: int, duration_s: int = 8, every_s=0.5):
    """Run a small scenario, sampling every worker's ``(queue_length, in_flight)`` per tick."""
    spec = get_scenario(scenario).with_overrides(
        trace_params={"qps": qps, "duration_s": duration_s}
    )
    sim = spec.build(seed=seed)
    samples = []

    def capture():
        depths = [(worker.queue_length, worker.in_flight) for worker in sim.cluster.workers]
        finished = (
            sim.metrics.completed_requests
            + sim.metrics.late_requests
            + sim.metrics.dropped_requests
        )
        samples.append((depths, sim.frontend.total_submitted, finished))

    ticks = int(duration_s / every_s)
    for i in range(ticks):
        sim.engine.schedule(every_s * (i + 1), capture)
    summary = sim.run()
    capture()  # fully drained
    return summary, samples


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestFleetConservation:
    @settings(max_examples=8, deadline=None)
    @given(
        qps=st.floats(min_value=5.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_depths_never_negative_and_backlog_conserved(self, scenario, qps, seed):
        _, samples = run_with_samples(scenario, qps, seed)
        assert samples
        for depths, submitted, finished in samples:
            for queued, in_flight in depths:
                assert queued >= 0
                assert in_flight >= 0
            # whatever sits in queues or on GPUs was submitted and has not
            # finished (the difference additionally covers queries still on
            # the network between workers)
            assert sum(queued + in_flight for queued, in_flight in depths) <= submitted - finished

    @settings(max_examples=8, deadline=None)
    @given(
        qps=st.floats(min_value=5.0, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_drained_run_accounting_closes(self, scenario, qps, seed):
        summary, samples = run_with_samples(scenario, qps, seed)
        final_depths, submitted, _ = samples[-1]
        assert final_depths == [(0, 0)] * len(final_depths)
        assert (
            summary.completed_requests + summary.late_requests + summary.dropped_requests
            == submitted
            == summary.total_requests
        )


def run_observing_control(scenario: str, qps: float = 40.0, seed: int = 1, every_s: float = 0.5):
    """Run a small scenario, recording every committed telemetry window and,
    at a fixed cadence, the ``queue_snapshot`` probe next to the workers it reads."""
    spec = get_scenario(scenario).with_overrides(trace_params={"qps": qps, "duration_s": 8})
    sim = spec.build(seed=seed)
    policy = sim.control_plane.allocation
    observe = policy.on_context
    windows = []

    def record_window(ctx):
        counters = tuple(
            sim.telemetry.get(name).value
            for name in ("requests.completed", "requests.dropped", "requests.late")
        )
        windows.append((ctx.window, counters))
        observe(ctx)

    policy.on_context = record_window
    probes = []

    def probe():
        cluster = sim.cluster
        planned = [worker.worker_id for worker in sim.control_plane.current_workers]
        ids = sorted(set(cluster.logical_map) | set(planned)) + ["no/such/worker"]
        backlogs, rates = cluster.queue_snapshot(ids)
        hosts = [cluster.resolve(worker_id) for worker_id in ids]
        views = [
            None
            if host is None
            else (host.failed, host.assignment is not None, host.queue_length, host.in_flight,
                  host.service_rate_qps, host.available_at_s <= sim.engine.now_s)
            for host in hosts
        ]
        probes.append(list(zip(ids, backlogs, rates, views)))

    ticks = int(8 / every_s)
    for i in range(ticks):
        sim.engine.schedule(every_s * (i + 1), probe)
    summary = sim.run()
    return summary, windows, probes


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestLiveReads:
    def test_window_deltas_never_double_count(self, scenario):
        """Each committed window counts only what finished since the previous
        one: the deltas are non-negative and their running sums equal the
        run's counters at every tick, so no request is counted twice or lost."""
        summary, windows, _ = run_observing_control(scenario)
        assert len(windows) > 1
        running = [0, 0, 0]
        for window, counters in windows:
            deltas = (window.completed, window.dropped, window.late)
            assert all(delta >= 0 for delta in deltas)
            running = [total + delta for total, delta in zip(running, deltas)]
            assert running == [int(value) for value in counters]
        assert 0 < running[0] <= summary.completed_requests
        assert running[1] <= summary.dropped_requests
        assert running[2] <= summary.late_requests

    def test_queue_snapshot_reads_the_hosting_workers(self, scenario):
        """The probe reports queued plus executing queries and the service
        rate of each hosting worker; unhosted, failed and unknown ids come
        back as ``(inf, 0.0)``."""
        _, _, probes = run_observing_control(scenario)
        assert probes
        saw_hosted = False
        for probe in probes:
            for worker_id, backlog, rate, view in probe:
                if view is None or view[0] or not view[1]:
                    assert (backlog, rate) == (math.inf, 0.0), worker_id
                    continue
                saw_hosted = True
                _, _, queued, in_flight, service_rate, loaded = view
                assert rate == service_rate > 0.0
                if loaded:
                    assert backlog == queued + in_flight
                else:  # still loading: remaining load time is extra backlog
                    assert backlog >= queued + in_flight
            assert probe[-1] == ("no/such/worker", math.inf, 0.0, None)
        assert saw_hosted
