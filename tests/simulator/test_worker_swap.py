"""Regression tests for worker variant-swap bookkeeping (make-before-break).

The seed bug: a second same-task reassignment while a swap was already pending
left the earlier ``_complete_swap`` event live, so the *newer* variant was
installed at the *older* variant's ready time -- ignoring its own load latency.
The worker now tracks the pending swap event and cancels it when superseded.
"""

import pytest

from repro.simulator.engine import SimulationEngine
from repro.simulator.worker import SimWorker, WorkerAssignment

from tests.conftest import make_variant


class StubSim:
    """Just enough of ServingSimulation for assignment-path unit tests."""

    def __init__(self):
        self.engine = SimulationEngine()
        self.drops = []

    def notify_drop(self, query, reason=""):
        self.drops.append(reason)


def assignment_for(variant, task="detect"):
    return WorkerAssignment(
        logical_id="lw0",
        task=task,
        variant=variant,
        batch_size=4,
        latency_budget_ms=100.0,
        expected_latency_ms=50.0,
        child_edges=(),
    )


@pytest.fixture
def sim():
    return StubSim()


@pytest.fixture
def worker(sim):
    return SimWorker("w0", sim)


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
