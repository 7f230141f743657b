"""Regression tests for a worker's scheduled swaps and batch completions.

Nothing in the calendar is cancelled, so a swap or a batch completion that a
later state change made stale must notice it itself when it runs.

* Variant swaps (make-before-break).  The seed bug: a second same-task
  reassignment while a swap was already pending let the earlier swap
  complete, so the *newer* variant was installed at the *older* variant's
  ready time -- ignoring its own load latency.  A swap's entry carries its
  assignment and installs it only if it is still the pending one.
* Batch completions.  A batch lost to ``fail()`` keeps its completion entry;
  that completion must end nothing, even when the recovered worker is by
  then executing a new batch.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.core.dropping import NoEarlyDropping
from repro.simulator.engine import SimulationEngine
from repro.simulator.network import NetworkModel
from repro.simulator.query import IntermediateQuery, Request
from repro.simulator.worker import SimWorker, WorkerAssignment
from repro.telemetry import TelemetryRegistry

from tests.conftest import make_variant


class StubSim:
    """Just enough of ServingSimulation for worker unit tests (sink tasks only)."""

    def __init__(self):
        self.engine = SimulationEngine()
        self.drop_policy = NoEarlyDropping()
        self.task_arrivals = defaultdict(int)
        telemetry = TelemetryRegistry()
        self._tele_batches = telemetry.counter("worker.batches")
        self._tele_batch_queries = telemetry.counter("worker.processed_queries")
        self.resilience = None
        # a hop without jitter draws nothing from the stream
        self.network = NetworkModel(latency_ms=1.0, jitter_ms=0.0)
        self.rng = None
        self.metrics = self
        self.drops = []
        #: requests finished at a sink, in completion order
        self.sinks = []

    def notify_drop(self, query, reason=""):
        self.drops.append(reason)

    def record_request_finished(self, request):
        self.sinks.append(request)


def assignment_for(variant, task="detect"):
    return WorkerAssignment(
        logical_id="lw0",
        task=task,
        variant=variant,
        batch_size=4,
        latency_budget_ms=100.0,
        expected_latency_ms=50.0,
        fanout=(),
    )


@pytest.fixture
def sim():
    return StubSim()


@pytest.fixture
def worker(sim):
    return SimWorker("w0", sim)


class TestWorkerAssignment:
    def test_batch_durations_follow_the_latency_curve(self):
        variant = make_variant("v", alpha=3.0, beta=1.5)
        assignment = assignment_for(variant)
        assert assignment.batch_durations_s == tuple(
            variant.execution_latency_ms(n) / 1000.0 for n in range(1, assignment.batch_size + 1)
        )

    @pytest.mark.parametrize("expected_latency_ms", [0.0, -1.0, float("nan")])
    def test_non_positive_expected_latency_is_rejected(self, expected_latency_ms):
        # a worker skips on_arrival while the remaining SLO covers this
        # latency, which keeps every policy's decisions only when it is > 0
        with pytest.raises(ValueError):
            dataclasses.replace(assignment_for(make_variant("v")), expected_latency_ms=expected_latency_ms)


class TestPendingSwapSupersession:
    def test_second_reassignment_cancels_earlier_swap(self, sim, worker):
        v1 = make_variant("v1", load_time_ms=100.0)
        v2 = make_variant("v2", load_time_ms=500.0)
        v3 = make_variant("v3", load_time_ms=800.0)

        worker.assign(assignment_for(v1), 0.0)
        sim.engine.run(until_s=0.2)  # v1 finishes loading at 0.1
        assert worker.assignment.variant.name == "v1"

        # Swap to v2: ready at 0.2 + 0.5 = 0.7.
        worker.assign(assignment_for(v2), sim.engine.now_s)
        assert worker.pending_assignment.variant.name == "v2"

        # Before that load completes, swap again to v3: ready at 0.3 + 0.8 = 1.1.
        sim.engine.run(until_s=0.3)
        worker.assign(assignment_for(v3), sim.engine.now_s)
        assert worker.pending_assignment.variant.name == "v3"

        # At v2's (stale) ready time nothing must happen: v3 is still loading.
        sim.engine.run(until_s=0.9)
        assert worker.assignment.variant.name == "v1"
        assert worker.pending_assignment.variant.name == "v3"

        # v3 installs only at its own ready time.
        sim.engine.run(until_s=1.2)
        assert worker.assignment.variant.name == "v3"
        assert worker.pending_assignment is None

    def test_reverting_to_current_variant_cancels_pending_swap(self, sim, worker):
        v1 = make_variant("v1", load_time_ms=100.0)
        v2 = make_variant("v2", load_time_ms=500.0)

        worker.assign(assignment_for(v1), 0.0)
        sim.engine.run(until_s=0.2)
        worker.assign(assignment_for(v2), sim.engine.now_s)
        # The control plane changes its mind: back to the already-loaded v1.
        worker.assign(assignment_for(v1), sim.engine.now_s)
        sim.engine.run(until_s=2.0)
        assert worker.assignment.variant.name == "v1"
        assert worker.pending_assignment is None

    def test_deactivation_cancels_pending_swap(self, sim, worker):
        v1 = make_variant("v1", load_time_ms=100.0)
        v2 = make_variant("v2", load_time_ms=500.0)

        worker.assign(assignment_for(v1), 0.0)
        sim.engine.run(until_s=0.2)
        worker.assign(assignment_for(v2), sim.engine.now_s)
        worker.assign(None, sim.engine.now_s)
        sim.engine.run(until_s=2.0)
        # The stale swap must not fire after deactivation.
        assert worker.assignment.variant.name == "v1"
        assert worker.pending_assignment is None
        assert not worker.active

    def test_task_change_cancels_pending_swap(self, sim, worker):
        v1 = make_variant("v1", load_time_ms=100.0)
        v2 = make_variant("v2", load_time_ms=500.0)
        other = make_variant("other", load_time_ms=200.0)

        worker.assign(assignment_for(v1), 0.0)
        sim.engine.run(until_s=0.2)
        worker.assign(assignment_for(v2), sim.engine.now_s)
        worker.assign(assignment_for(other, task="classify"), sim.engine.now_s)
        sim.engine.run(until_s=2.0)
        assert worker.assignment.variant.name == "other"
        assert worker.pending_assignment is None


def query(query_id):
    request = Request(query_id, 0.0, 1000.0)
    request.outstanding += 1
    return IntermediateQuery(query_id, request, "detect", 0.0)


class TestLostBatchCompletion:
    """A 100 ms model (104 ms per one-query batch) that loads in 10 ms."""

    VARIANT = make_variant("slow", alpha=100.0, load_time_ms=10.0)

    def start_and_lose_a_batch(self, sim, worker):
        worker.assign(assignment_for(self.VARIANT), 0.0)
        sim.engine.run(until_s=0.02)
        lost = query(1)
        worker.enqueue(lost)  # executes at once: completes at 0.124
        assert worker.batch == [lost]
        sim.engine.run(until_s=0.05)
        worker.fail()
        assert worker.batch is None and worker.in_flight == 0
        assert sim.drops == ["worker failed"]
        return lost

    def test_stale_completion_does_not_end_the_recovered_workers_batch(self, sim, worker):
        self.start_and_lose_a_batch(sim, worker)
        worker.recover()
        worker.assign(assignment_for(self.VARIANT), sim.engine.now_s)  # loaded at 0.06
        fresh = query(2)
        worker.enqueue(fresh)
        sim.engine.run(until_s=0.07)
        new_batch = worker.batch
        assert new_batch == [fresh]  # started at 0.06, completes at 0.164

        processed = sim.engine.events_processed
        sim.engine.run(until_s=0.13)  # past the lost batch's completion at 0.124
        assert sim.engine.events_processed == processed + 1  # popped and counted
        assert sim.sinks == []  # the stale completion forwarded nothing
        assert worker.batch is new_batch and worker.in_flight == 1
        assert sim._tele_batches.value == 0
        waiting = query(3)
        worker.enqueue(waiting)  # the worker is still busy: it queues
        assert list(worker.queue) == [waiting] and worker.batch is new_batch

        sim.engine.run(until_s=0.2)  # the new batch completes at its own time
        assert sim.sinks == [fresh.request]
        assert worker.batch == [waiting]
        sim.engine.run(until_s=0.5)
        assert sim.sinks == [fresh.request, waiting.request]
        assert sim.drops == ["worker failed"]
        assert sim._tele_batches.value == 2

    def test_stale_completion_on_a_failed_worker_does_nothing(self, sim, worker):
        self.start_and_lose_a_batch(sim, worker)
        sim.engine.run(until_s=0.5)
        assert sim.sinks == []
        assert sim.drops == ["worker failed"]  # dropped once, by fail()
        assert worker.batch is None
        assert sim._tele_batches.value == 0
