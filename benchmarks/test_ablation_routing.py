"""Ablation benchmarks for the routing layer.

Two tracked claims:

* **Routing quality** -- the paper argues MostAccurateFirst maximises
  end-to-end accuracy because it saturates the most accurate workers first;
  the first ablation compares its routed accuracy against a round-robin
  (capacity-proportional) router on the same allocation plan and demand.
* **Dispatch throughput** -- the control-plane overhaul compiled routing
  tables into bisect samplers; the throughput ablation replays the seed
  implementation (one ``np.searchsorted`` call per query against a cached
  cumulative array) and asserts the compiled scalar path dispatches >= 3x
  faster.
"""

import time

import numpy as np
import pytest

from benchmarks import perf_record
from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import MostAccurateFirst, workers_from_plan
from repro.zoo import traffic_analysis_pipeline

pytestmark = pytest.mark.bench


def _expected_accuracy_most_accurate_first(pipeline, workers, demand):
    plan = MostAccurateFirst(pipeline).build(workers, demand)
    entries = plan.frontend_table.entries(pipeline.root)
    return sum(e.probability * e.accuracy for e in entries), plan


def _expected_accuracy_round_robin(pipeline, workers, demand):
    root_workers = [w for w in workers if w.task == pipeline.root]
    total_capacity = sum(w.capacity_qps for w in root_workers)
    served = min(demand, total_capacity)
    if served <= 0:
        return 0.0
    return sum((w.capacity_qps / total_capacity) * w.accuracy for w in root_workers) * (served / demand)


def test_most_accurate_first_vs_round_robin(benchmark):
    pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
    problem = AllocationProblem(pipeline, num_workers=20, latency_slo_ms=250.0)
    capacity = problem.max_supported_demand().max_demand_qps
    plan = problem.solve(capacity * 0.8)
    workers = workers_from_plan(plan, pipeline)
    demand = capacity * 0.5  # partial load: routing choices actually matter

    maf_accuracy, routing = benchmark.pedantic(
        _expected_accuracy_most_accurate_first, args=(pipeline, workers, demand), rounds=3, iterations=1
    )
    rr_accuracy = _expected_accuracy_round_robin(pipeline, workers, demand)
    print(
        f"\nrouting ablation: MostAccurateFirst first-task accuracy {maf_accuracy:.4f} "
        f"vs round-robin {rr_accuracy:.4f}"
    )
    assert maf_accuracy >= rr_accuracy - 1e-9
    assert not routing.frontend_table.is_empty()


# --------------------------------------------------------------------------- #
# Dispatch-throughput ablation: compiled samplers vs. the seed implementation
# --------------------------------------------------------------------------- #


class _SeedRoutingTable:
    """Faithful replica of the seed RoutingTable sampling path.

    The seed cached a per-task ``np.cumsum`` array and sampled with one
    scalar ``np.searchsorted`` per query (plus a ``min`` clamp and a list
    index) -- NumPy scalar-dispatch overhead on every single draw.
    """

    def __init__(self, entries):
        self._entries = {"t": list(entries)}
        self._cumulative = {}

    def choose(self, destination_task, rng):
        cumulative = self._cumulative.get(destination_task)
        if cumulative is None:
            entries = self._entries.get(destination_task)
            if not entries:
                return None
            weights = np.array([e.probability for e in entries], dtype=float)
            total = weights.sum()
            if total <= 0:
                return None
            cumulative = np.cumsum(weights / total)
            self._cumulative[destination_task] = cumulative
        entries = self._entries[destination_task]
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        index = min(index, len(entries) - 1)
        return entries[index]


def _routing_fixture():
    """A realistic frontend table: the fig5 pipeline at 80% provisioning."""
    pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
    problem = AllocationProblem(pipeline, num_workers=20, latency_slo_ms=250.0)
    capacity = problem.max_supported_demand().max_demand_qps
    plan = problem.solve(capacity * 0.8)
    workers = workers_from_plan(plan, pipeline)
    routing = MostAccurateFirst(pipeline).build(workers, capacity * 0.5)
    root = pipeline.root
    return routing.frontend_table, routing.frontend_table.entries(root), root


def _rate(fn, draws):
    start = time.perf_counter()
    fn()
    return draws / (time.perf_counter() - start)


def test_compiled_dispatch_rate(benchmark):
    """Absolute per-query dispatch rate of the compiled table (tracked record)."""
    table, _, root = _routing_fixture()
    rng = np.random.default_rng(0)
    draws = 50_000

    def dispatch():
        choose = table.choose
        for _ in range(draws):
            choose(root, rng)
        return draws

    total = benchmark.pedantic(dispatch, rounds=3, iterations=1)
    assert total == draws


@pytest.mark.slow
def test_compiled_dispatch_speedup_over_seed_table():
    """Compiled scalar dispatch >= 3x the seed path.

    Timing ratios are noisy on shared CI runners, so like the engine-dispatch
    ablation this is slow-marked out of tier-1 and run as an advisory CI job.
    """
    table, entries, root = _routing_fixture()
    seed_table = _SeedRoutingTable(entries)
    draws = 200_000

    rng = np.random.default_rng(0)
    seed_rate = _rate(lambda: [seed_table.choose("t", rng) for _ in range(draws)], draws)
    rng = np.random.default_rng(0)
    compiled_rate = _rate(lambda: [table.choose(root, rng) for _ in range(draws)], draws)

    speedup = compiled_rate / seed_rate
    print(
        f"\nrouting dispatch: seed {seed_rate / 1e6:.2f}M/s, compiled {compiled_rate / 1e6:.2f}M/s "
        f"({speedup:.1f}x)"
    )
    perf_record.update(
        "routing_dispatch",
        {
            "seed_draws_per_s": seed_rate,
            "compiled_draws_per_s": compiled_rate,
            "scalar_speedup": speedup,
        },
    )
    assert speedup >= 3.0, f"compiled dispatch only {speedup:.2f}x the seed rate"
