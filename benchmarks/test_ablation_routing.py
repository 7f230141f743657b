"""Routing-quality ablation.

The paper argues MostAccurateFirst maximises end-to-end accuracy because it
saturates the most accurate workers first; this compares its routed accuracy
against a round-robin (capacity-proportional) router on the same allocation
plan and demand.
"""

import pytest

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
