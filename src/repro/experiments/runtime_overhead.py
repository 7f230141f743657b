"""Section 6.5: runtime overhead of the Resource Manager and Load Balancer.

The paper measures an average MILP runtime of ~500 ms for the Resource Manager
and ~0.15 ms for the Load Balancer's MostAccurateFirst pass, arguing that both
are fast enough for a 10-second re-allocation interval and per-second routing
refreshes.  This experiment reproduces both measurements, with HiGHS in
Gurobi's place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import MostAccurateFirst, workers_from_plan
from repro.experiments.common import format_table
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

__all__ = ["RuntimeResult", "run", "main"]


@dataclass
class RuntimeResult:
    """Mean runtimes in milliseconds."""

    resource_manager_ms: Dict[str, float]
    load_balancer_ms: Dict[str, float]
    demands_qps: Dict[str, List[float]]
    #: discrete-event simulator throughput on the smoke scenario (0 = not measured)
    simulator_events_per_s: float = 0.0

    @property
    def mean_resource_manager_ms(self) -> float:
        values = list(self.resource_manager_ms.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_load_balancer_ms(self) -> float:
        values = list(self.load_balancer_ms.values())
        return sum(values) / len(values) if values else 0.0


def measure_simulator_throughput(scenario: str = "smoke", seed: int = 0) -> float:
    """Events/second of the discrete-event engine on a registered scenario."""
    from repro.scenarios import get_scenario

    simulation = get_scenario(scenario).build(seed)
    start = time.perf_counter()
    simulation.run()
    elapsed = time.perf_counter() - start
    return simulation.engine.events_processed / elapsed if elapsed > 0 else 0.0


def run(
    num_workers: int = 20,
    slo_ms: float = 250.0,
    demand_fractions: Sequence[float] = (0.3, 0.6, 0.9),
    repeats: int = 3,
    include_simulator: bool = True,
) -> RuntimeResult:
    """Time the two-step MILP, MostAccurateFirst and the simulator engine."""
    pipelines = {
        "traffic_analysis": traffic_analysis_pipeline(latency_slo_ms=slo_ms),
        "social_media": social_media_pipeline(latency_slo_ms=slo_ms),
    }
    rm_times: Dict[str, float] = {}
    lb_times: Dict[str, float] = {}
    demands: Dict[str, List[float]] = {}
    for name, pipeline in pipelines.items():
        problem = AllocationProblem(pipeline, num_workers=num_workers, latency_slo_ms=slo_ms)
        capacity = problem.max_supported_demand().max_demand_qps
        demand_list = [capacity * fraction for fraction in demand_fractions]
        demands[name] = demand_list

        rm_samples: List[float] = []
        lb_samples: List[float] = []
        for demand in demand_list:
            plan = None
            for _ in range(repeats):
                start = time.perf_counter()
                plan = problem.solve(demand)
                rm_samples.append((time.perf_counter() - start) * 1000.0)
            assert plan is not None
            workers = workers_from_plan(plan, pipeline)
            algorithm = MostAccurateFirst(pipeline)
            for _ in range(max(10, repeats * 10)):
                start = time.perf_counter()
                algorithm.build(workers, demand)
                lb_samples.append((time.perf_counter() - start) * 1000.0)
        rm_times[name] = sum(rm_samples) / len(rm_samples)
        lb_times[name] = sum(lb_samples) / len(lb_samples)
    return RuntimeResult(
        resource_manager_ms=rm_times,
        load_balancer_ms=lb_times,
        demands_qps=demands,
        simulator_events_per_s=measure_simulator_throughput() if include_simulator else 0.0,
    )


def main(**kwargs) -> RuntimeResult:
    result = run(**kwargs)
    rows = [
        [name, f"{result.resource_manager_ms[name]:.1f}", f"{result.load_balancer_ms[name]:.3f}"]
        for name in result.resource_manager_ms
    ]
    print("Section 6.5 -- runtime overhead")
    print(format_table(["pipeline", "resource_manager_ms", "load_balancer_ms"], rows))
    print(
        f"\nmean Resource Manager runtime: {result.mean_resource_manager_ms:.1f} ms (paper: ~500 ms with Gurobi)"
        f"\nmean Load Balancer runtime:    {result.mean_load_balancer_ms:.3f} ms (paper: ~0.15 ms)"
    )
    if result.simulator_events_per_s:
        print(f"simulator throughput:          {result.simulator_events_per_s:,.0f} events/s (smoke scenario)")
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
