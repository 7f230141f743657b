"""Deterministic solver work limits (HiGHS node budgets).

Wall-clock limits make MILP results depend on machine load: a solve that
terminates on ``time_limit`` returns whatever incumbent it happened to reach
in the allotted seconds.  HiGHS's ``node_limit`` bounds the *work*, not the
wall clock, so a budgeted solve returns the same plan on any machine.  The
default budget, :data:`repro.solver.DEFAULT_SOLVER_OPTIONS`, is such a node
limit, so full-grid fig5-style allocation MILPs run reproducibly as they are.
"""

import numpy as np

from repro.core.allocation import AllocationProblem, build_accuracy_scaling_model
from repro.solver import DEFAULT_SOLVER_OPTIONS, OPTIMAL, solve
from tests.conftest import standard_form
from repro.zoo import traffic_analysis_pipeline


def knapsack_model(num_items: int = 14, seed: int = 3):
    """A dense integer knapsack MILP (each item taken up to 3 times) that needs real branching."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 10.0, size=num_items)
    weights = rng.uniform(1.0, 8.0, size=num_items)
    return standard_form(
        values,
        A_ub=[weights],
        b_ub=[weights.sum() * 0.9],
        ub=np.full(num_items, 3.0),
        integer=np.ones(num_items),
        maximize=True,
    )


class TestScipyNodeLimit:
    def test_node_limit_option_accepted_and_deterministic(self):
        model = knapsack_model()
        first = solve(model, cache=False, node_limit=10_000)
        second = solve(model, cache=False, node_limit=10_000)
        assert first.status == OPTIMAL
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)

    def test_node_limit_flows_through_solver_options(self):
        """ControllerConfig.solver_options-style kwargs reach HiGHS."""
        solution = solve(knapsack_model(), cache=False, mip_rel_gap=2e-3, node_limit=50_000)
        assert solution.status == OPTIMAL


class TestFullGridAllocationDeterminism:
    def test_full_batch_grid_fig5_milp_is_reproducible(self):
        """The fig5-shaped accuracy-scaling MILP on the *unrestricted* batch
        grid, solved under the default budget, returns an identical plan on
        repeated solves: the default bounds work, not seconds."""
        pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
        problem = AllocationProblem(pipeline, num_workers=20, latency_slo_ms=250.0)
        demand = problem.max_supported_demand(restrict_to_best=True).max_demand_qps * 2.5
        model = build_accuracy_scaling_model(problem, demand)

        solutions = [solve(model, cache=False, **DEFAULT_SOLVER_OPTIONS) for _ in range(2)]
        first, second = solutions
        assert first.status == OPTIMAL
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)

    def test_controller_plans_are_reproducible(self):
        """A Controller under the default budget produces an identical
        full-grid plan on a rebuilt controller (end to end, no wall-clock
        dependence)."""
        from repro.core import Controller, ControllerConfig

        plans = []
        for _ in range(2):
            pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
            controller = Controller(pipeline, ControllerConfig(num_workers=20, latency_slo_ms=250.0))
            controller.report_demand(0.0, 60.0)
            plan, routing = controller.step(0.0, force=True)
            assert plan is not None and plan.allocations
            assert routing is not None
            plans.append(
                sorted((a.task, a.variant_name, a.batch_size, a.replicas) for a in plan.allocations)
            )
        assert plans[0] == plans[1]
