"""Tests for the hardware/accuracy-scaling MILP formulations (Section 4)."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from repro.core.allocation import (
    ACCURACY_SCALING,
    HARDWARE_SCALING,
    AllocationProblem,
    build_accuracy_scaling_model,
    build_hardware_scaling_model,
)


@pytest.fixture
def problem(small_pipeline):
    return AllocationProblem(small_pipeline, num_workers=10, latency_slo_ms=150.0, utilization_target=1.0)


@pytest.fixture
def branching_problem(branching_pipeline):
    return AllocationProblem(branching_pipeline, num_workers=12, latency_slo_ms=200.0, utilization_target=1.0)


class TestConfigurationEnumeration:
    def test_configurations_cover_all_variant_batch_pairs(self, problem, small_pipeline):
        configs = problem.configurations()
        expected = sum(
            len(v.batch_sizes) for task in small_pipeline.tasks for v in small_pipeline.registry.variants(task)
        )
        assert len(configs) == expected

    def test_restrict_to_best_only_uses_most_accurate(self, problem):
        configs = problem.configurations(restrict_to_best=True)
        assert {c.variant.name for c in configs} == {"detect_big", "classify_big"}

    def test_config_paths_respect_latency_budget(self, problem):
        budget = problem.effective_budget_ms(2)
        for path in problem.config_paths():
            assert path.latency_ms <= budget + 1e-9

    def test_effective_budget_subtracts_communication(self, small_pipeline):
        p = AllocationProblem(
            small_pipeline, num_workers=4, latency_slo_ms=200.0, communication_latency_ms=5.0, slo_slack_factor=2.0
        )
        assert p.effective_budget_ms(2) == pytest.approx(200.0 / 2 - 10.0)

    def test_allowed_batches_intersection(self, small_pipeline):
        p = AllocationProblem(small_pipeline, num_workers=4, batch_sizes=(1, 4, 64))
        variant = small_pipeline.registry.variant("detect_big")
        assert p.allowed_batches(variant) == (1, 4)

    def test_multiplicative_factor_override(self, small_pipeline):
        p = AllocationProblem(small_pipeline, num_workers=4, multiplicative_factors={"detect_big": 3.0})
        assert p.multiplicative_factor(small_pipeline.registry.variant("detect_big")) == pytest.approx(3.0)
        assert p.multiplicative_factor(small_pipeline.registry.variant("detect_small")) == pytest.approx(1.6)

    def test_invalid_parameters_rejected(self, small_pipeline):
        with pytest.raises(ValueError):
            AllocationProblem(small_pipeline, num_workers=0)
        with pytest.raises(ValueError):
            AllocationProblem(small_pipeline, num_workers=2, utilization_target=0.0)


class TestHardwareScaling:
    def test_minimises_workers_at_low_demand(self, problem):
        plan = problem.solve_hardware_scaling(20.0)
        assert plan is not None
        assert plan.mode == HARDWARE_SCALING
        assert plan.feasible
        # Low demand needs few workers, never the whole cluster.
        assert 1 <= plan.total_workers <= 4

    def test_only_most_accurate_variants_hosted(self, problem):
        plan = problem.solve_hardware_scaling(30.0)
        assert {a.variant_name for a in plan.allocations} <= {"detect_big", "classify_big"}
        assert plan.expected_accuracy == pytest.approx(1.0, abs=1e-6)

    def test_workers_grow_with_demand(self, problem):
        low = problem.solve_hardware_scaling(20.0)
        high = problem.solve_hardware_scaling(120.0)
        assert high is not None and low is not None
        assert high.total_workers >= low.total_workers

    def test_capacity_covers_multiplied_load(self, branching_problem, branching_pipeline):
        demand = 40.0
        plan = branching_problem.solve_hardware_scaling(demand)
        assert plan is not None
        factor = branching_pipeline.registry.variant("det_hi").multiplicative_factor
        assert plan.capacity_qps("detect") >= demand - 1e-6
        assert plan.capacity_qps("classify_a") >= demand * factor * 0.6 - 1e-6
        assert plan.capacity_qps("classify_b") >= demand * factor * 0.4 - 1e-6

    def test_infeasible_when_demand_exceeds_cluster(self, problem):
        plan = problem.solve_hardware_scaling(1e6)
        assert plan is None

    def test_raw_model_is_minimisation(self, problem):
        form = build_hardware_scaling_model(problem, 50.0)
        assert form.sense == 1
        assert form.num_vars > 0


class TestAccuracyScaling:
    def test_uses_cheaper_variants_when_needed(self, problem):
        hardware_capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
        plan = problem.solve_accuracy_scaling(hardware_capacity * 1.5)
        assert plan is not None
        assert plan.mode == ACCURACY_SCALING
        assert plan.expected_accuracy < 1.0
        assert plan.total_workers <= problem.num_workers

    def test_accuracy_not_sacrificed_unnecessarily(self, problem):
        plan = problem.solve_accuracy_scaling(10.0)
        assert plan is not None
        assert plan.expected_accuracy == pytest.approx(1.0, abs=1e-6)

    def test_accuracy_monotone_nonincreasing_in_demand(self, problem):
        capacities = [50.0, 150.0, 250.0]
        accuracies = []
        for demand in capacities:
            plan = problem.solve_accuracy_scaling(demand)
            if plan is not None:
                accuracies.append(plan.expected_accuracy)
        assert all(a >= b - 1e-6 for a, b in zip(accuracies, accuracies[1:]))

    def test_path_ratios_sum_to_one_per_branch(self, branching_problem, branching_pipeline):
        plan = branching_problem.solve_accuracy_scaling(60.0)
        assert plan is not None
        per_branch = {}
        for key, ratio in plan.path_ratios.items():
            sink = key[-1][0]
            per_branch[sink] = per_branch.get(sink, 0.0) + ratio
        for sink, total in per_branch.items():
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_accuracy_floor_respected(self, problem):
        plan = problem.solve_accuracy_scaling(200.0, accuracy_floor=0.9)
        if plan is not None:
            assert plan.expected_accuracy >= 0.9 - 1e-6

    def test_raw_model_is_maximisation(self, problem):
        form = build_accuracy_scaling_model(problem, 50.0)
        assert form.sense == -1


class TestTwoStepSolve:
    def test_low_demand_uses_hardware_scaling(self, problem):
        plan = problem.solve(20.0)
        assert plan.mode == HARDWARE_SCALING
        assert plan.feasible

    def test_high_demand_falls_back_to_accuracy_scaling(self, problem):
        hardware_capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
        plan = problem.solve(hardware_capacity * 1.4)
        assert plan.mode == ACCURACY_SCALING
        assert plan.feasible

    def test_impossible_demand_returns_best_effort(self, problem):
        plan = problem.solve(1e6)
        assert not plan.feasible
        assert plan.total_workers <= problem.num_workers
        assert "max_supported_qps" in plan.solver_info

    def test_latency_budgets_available_for_all_allocations(self, problem):
        plan = problem.solve(60.0)
        for allocation in plan.allocations:
            budget = plan.latency_budget_ms(allocation.task, allocation.variant_name, allocation.batch_size)
            assert budget == pytest.approx(allocation.latency_ms)
        with pytest.raises(KeyError):
            plan.latency_budget_ms("detect", "ghost", 1)


class TestColumnLayout:
    def test_x_then_g_then_demand(self, problem, monkeypatch):
        import repro.core.allocation as allocation

        calls = []
        real = allocation.solve

        def capture(form, **options):
            calls.append((form, real(form, **options)))
            return calls[-1][1]

        monkeypatch.setattr(allocation, "solve", capture)
        result = problem.max_supported_demand()
        ((form, solution),) = calls
        num_x, num_g = len(problem.configurations()), len(problem.config_paths())
        assert form.num_vars == num_x + num_g + 1
        assert form.integrality.tolist() == [1] * num_x + [0] * (num_g + 1)
        assert form.c.tolist() == [0] * (num_x + num_g) + [-1] and form.sense == -1
        assert result.max_demand_qps == solution.x[-1] > 0
        assert result.plan.total_workers == sum(solution.x[:num_x])


class TestMaxSupportedDemand:
    def test_accuracy_scaling_capacity_exceeds_hardware_capacity(self, problem):
        hardware = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
        full = problem.max_supported_demand().max_demand_qps
        assert full >= hardware - 1e-6
        assert full > 0

    def test_capacity_scales_with_cluster_size(self, small_pipeline):
        small = AllocationProblem(small_pipeline, num_workers=4, utilization_target=1.0)
        large = AllocationProblem(small_pipeline, num_workers=16, utilization_target=1.0)
        assert large.max_supported_demand().max_demand_qps > small.max_supported_demand().max_demand_qps

    def test_accuracy_floor_reduces_capacity(self, problem):
        unconstrained = problem.max_supported_demand().max_demand_qps
        floored = problem.max_supported_demand(accuracy_floor=0.97).max_demand_qps
        assert floored <= unconstrained + 1e-6

    def test_utilization_target_derates_capacity(self, small_pipeline):
        full = AllocationProblem(small_pipeline, num_workers=8, utilization_target=1.0)
        derated = AllocationProblem(small_pipeline, num_workers=8, utilization_target=0.5)
        ratio = derated.max_supported_demand().max_demand_qps / full.max_supported_demand().max_demand_qps
        assert ratio == pytest.approx(0.5, rel=0.15)


class TestInfeasibleSLO:
    """An SLO that no configuration path meets is infeasible on every entry point, without a solve."""

    @pytest.fixture
    def problem(self, small_pipeline):
        return AllocationProblem(small_pipeline, num_workers=10, latency_slo_ms=10.0)

    @pytest.fixture
    def milp_calls(self, monkeypatch):
        calls = []

        def counting_milp(**kwargs):
            calls.append(kwargs)
            raise AssertionError("HiGHS called on a structurally infeasible problem")

        monkeypatch.setattr(optimize, "milp", counting_milp)
        return calls

    def test_unreachable_slo_yields_no_paths(self, problem):
        assert problem.config_paths() == []
        assert build_hardware_scaling_model(problem, 10.0) is None
        assert build_accuracy_scaling_model(problem, 10.0) is None

    def test_scaling_steps_return_none(self, problem, milp_calls):
        assert problem.solve_hardware_scaling(10.0) is None
        assert problem.solve_accuracy_scaling(10.0) is None
        assert milp_calls == []

    def test_max_supported_demand_is_zero(self, problem, milp_calls):
        assert problem.max_supported_demand().max_demand_qps == 0.0
        assert problem.max_supported_demand(restrict_to_best=True).max_demand_qps == 0.0
        assert milp_calls == []

    def test_solve_returns_infeasible_plan(self, problem, milp_calls):
        plan = problem.solve(10.0)
        assert not plan.feasible
        assert plan.allocations == []
        assert plan.solver_info == {"max_supported_qps": 0.0}
        assert milp_calls == []


class TestPlanHelpers:
    def test_plan_summary_and_queries(self, problem):
        plan = problem.solve(60.0)
        text = plan.summary()
        assert "plan[small]" in text
        assert plan.workers_for("detect") >= 1
        assert set(plan.tasks()) <= {"detect", "classify"}
        assert plan.variants_for("detect")
        assert plan.capacity_qps("detect") > 0


#: the keyword every allocation-model solve adds to the problem's ``solver_options``
WITHOUT_FEASIBILITY_JUMP = {"feasibility_jump": False}


class TestSolverOptionsReachHighs:
    """Every allocation MILP is solved with the problem's ``solver_options``, without the feasibility jump."""

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        """``(kind, optimal, options, expected)`` of every ``solve`` call, from the allocation MILPs and Proteus's per-task MILPs.

        ``kind`` is ``"milp"`` for a form with integer columns, else ``"lp"``.
        ``expected`` is the options the default budget gives the caller: the
        allocation model adds :data:`WITHOUT_FEASIBILITY_JUMP`, Proteus keeps
        HiGHS's defaults.
        """
        import repro.baselines.proteus as proteus
        import repro.core.allocation as allocation
        from repro.solver import DEFAULT_SOLVER_OPTIONS

        calls = []
        real = allocation.solve

        def spy_for(expected):
            def spy(model, **kwargs):
                solution = real(model, **kwargs)
                calls.append(("milp" if model.integrality.any() else "lp", solution.is_optimal, kwargs, expected))
                return solution

            return spy

        monkeypatch.setattr(allocation, "solve", spy_for({**DEFAULT_SOLVER_OPTIONS, **WITHOUT_FEASIBILITY_JUMP}))
        monkeypatch.setattr(proteus, "solve", spy_for(dict(DEFAULT_SOLVER_OPTIONS)))
        return calls

    def test_default_options_on_every_milp(self, small_pipeline, solve_calls, monkeypatch):
        import repro.core.allocation as allocation
        from repro.solver import DEFAULT_SOLVER_OPTIONS

        problem = AllocationProblem(small_pipeline, num_workers=10, latency_slo_ms=150.0)
        problem.solve(800.0)
        problem.solve(5_000.0)
        # The full MILP runs only when no restricted MILP finds a plan: make
        # the support MILP infeasible to reach it.
        spy = allocation.solve

        def infeasible_support(form, **kwargs):
            if form.integrality.any() and (form.ub == 0).any():
                form = replace(form, ub=np.zeros_like(form.ub))
            return spy(form, **kwargs)

        monkeypatch.setattr(allocation, "solve", infeasible_support)
        plan = problem.solve_accuracy_scaling(800.0)
        assert plan.solver_info["incumbent"] == "milp"
        assert [call[:2] for call in solve_calls] == [
            # 800 qps: an infeasible hardware LP ends hardware scaling; accuracy
            # scaling's two relaxations and its support MILP.
            ("lp", False), ("lp", True), ("lp", True), ("milp", True),
            # 5,000 qps: both relaxations infeasible, then max throughput.
            ("lp", False), ("lp", False), ("milp", True),
            # 800 qps, support MILP infeasible: the full MILP.
            ("lp", True), ("lp", True), ("milp", False), ("milp", True),
        ]
        expected = {**DEFAULT_SOLVER_OPTIONS, **WITHOUT_FEASIBILITY_JUMP}
        assert all(options == expected for _, _, options, _ in solve_calls)

    @pytest.mark.parametrize("system", ["loki", "inferline", "proteus", "slo_feedback"])
    def test_default_options_on_every_step(self, system, solve_calls):
        """Each serving system solves every MILP of a run under the one default budget."""
        from repro.scenarios import get_scenario

        get_scenario("smoke").with_overrides(system=system).run(seed=0)
        assert solve_calls, f"{system} solved no MILP"
        assert all(options == expected for _, _, options, expected in solve_calls)

    def test_controller_config_options_reach_the_solver(self, small_pipeline, solve_calls):
        from repro.core import Controller, ControllerConfig

        options = {"node_limit": 5_000, "mip_rel_gap": 1e-3}
        controller = Controller(small_pipeline, ControllerConfig(num_workers=10, solver_options=dict(options)))
        controller.report_demand(0.0, 40.0)
        plan, _ = controller.step(0.0, force=True)
        assert plan is not None and plan.feasible
        assert solve_calls and all(call[2] == {**options, **WITHOUT_FEASIBILITY_JUMP} for call in solve_calls)


class TestFeasibilityJumpReachesHighs:
    """Allocation-model solves reach ``optimize.milp`` with HiGHS's feasibility jump off; Proteus's do not."""

    @pytest.fixture
    def milp_calls(self, monkeypatch):
        """``(caller, options)`` of every ``optimize.milp`` call, ``caller`` the module whose ``solve`` made it."""
        import repro.baselines.proteus as proteus
        import repro.core.allocation as allocation

        calls = []
        callers = []
        real_milp = optimize.milp

        def milp(**kwargs):
            calls.append((callers[-1], dict(kwargs["options"])))  # milp pops node_limit from its dict
            return real_milp(**kwargs)

        for module in (allocation, proteus):
            def solve(form, _module=module.__name__, _real=module.solve, **options):
                callers.append(_module)
                try:
                    return _real(form, cache=False, **options)  # a cache hit would skip HiGHS
                finally:
                    callers.pop()

            monkeypatch.setattr(module, "solve", solve)
        monkeypatch.setattr(optimize, "milp", milp)
        return calls

    @pytest.mark.parametrize("system", ["loki", "inferline", "proteus", "slo_feedback"])
    def test_only_allocation_model_solves_drop_it(self, system, milp_calls):
        from repro.scenarios import get_scenario
        from repro.solver import FEASIBILITY_JUMP_OPTION

        get_scenario("smoke").with_overrides(system=system).run(seed=0)
        by_caller = {}
        for caller, options in milp_calls:
            by_caller.setdefault(caller, []).append(options)
        owner = "repro.baselines.proteus" if system == "proteus" else "repro.core.allocation"
        assert by_caller.get(owner), f"{system} made no HiGHS call"
        for options in by_caller.get("repro.core.allocation", ()):
            assert options[FEASIBILITY_JUMP_OPTION] is False
        for options in by_caller.get("repro.baselines.proteus", ()):
            assert FEASIBILITY_JUMP_OPTION not in options
