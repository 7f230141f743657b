"""Proteus's one-batch-per-variant model is exact.

:class:`~repro.baselines.proteus.ProteusAllocationPolicy` builds its MILP
over one configuration per ``(task, variant)``: the batch
:func:`~repro.baselines.proteus.proteus_batch` picks (see "Configuration
reduction" in :mod:`repro.baselines.proteus`).  These tests keep the model
it replaced, one column pair per latency-feasible ``(task, variant, batch)``,
as a test-only builder, and check that both models agree on feasibility and
on the optimum when each is solved to proven optimality.
"""

import math

import numpy as np
import pytest
from scipy import sparse

import repro.baselines.proteus as proteus
from repro.baselines import ProteusControlPlane
from repro.core.pipeline import Edge, Pipeline, Task
from repro.core.profiles import ModelVariant, ProfileRegistry
from repro.solver import INFEASIBLE, Solution, StandardForm, solve
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline

#: proven optimality: no relative gap and no node limit
EXACT = {"mip_rel_gap": 0.0}
CLUSTERS = (3, 10, 20)
#: per-task demand as a multiple of the task's share of the cluster's capacity
UNIFORM_FACTORS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
#: one task well over its share while the others are under theirs
SKEWED_FACTORS = ((3.0, 0.25), (0.25, 3.0), (1.5, 0.5))


def all_batches_form(pipeline, demands, budget_ms, num_workers):
    """The all-batches model: one ``(x, f)`` pair per latency-feasible ``(task, variant, batch)``."""
    tasks = list(pipeline.tasks)
    configs = []
    for task in tasks:
        for variant in pipeline.registry.variants(task):
            for batch in variant.batch_sizes:
                if variant.latency_ms(batch) <= budget_ms:
                    configs.append((task, variant, variant.throughput_qps(batch)))
    feasible_tasks = [task for task in tasks if any(config[0] == task for config in configs)]
    num_configs = len(configs)
    num_vars = 2 * num_configs
    k = np.arange(num_configs)
    capacity = np.zeros((num_configs, num_vars))
    capacity[k, 2 * k] = [-throughput for _, _, throughput in configs]
    capacity[k, 2 * k + 1] = 1.0
    cluster = np.zeros((1, num_vars))
    cluster[0, 0::2] = 1.0
    served = np.zeros((len(feasible_tasks), num_vars))
    served[:, 1::2] = [[config[0] == task for config in configs] for task in feasible_tasks]
    c = np.zeros(num_vars)
    c[1::2] = [-(variant.accuracy / max(demands[task], 1e-9) / len(tasks)) for task, variant, _ in configs]
    ub = np.full(num_vars, math.inf)
    ub[0::2] = float(num_workers)
    integrality = np.zeros(num_vars)
    integrality[0::2] = 1.0
    return StandardForm(
        c=c,
        A_ub=sparse.csr_matrix(np.vstack([capacity, cluster])),
        b_ub=np.array([0.0] * num_configs + [float(num_workers)]),
        A_eq=sparse.csr_matrix(served),
        b_eq=np.array([float(demands[task]) for task in feasible_tasks]),
        lb=np.zeros(num_vars),
        ub=ub,
        integrality=integrality,
        sense=-1,
    )


def reduced_form(pipeline, demands, num_workers, monkeypatch):
    """The form ``build_plan`` hands to ``solve`` at these per-task demands."""
    forms = []

    def capture(form, **options):
        forms.append(form)
        return Solution(status=INFEASIBLE)

    monkeypatch.setattr(proteus, "solve", capture)
    policy = ProteusControlPlane(pipeline, num_workers=num_workers).allocation
    policy.task_demand_estimate = lambda task, root_target_qps: demands[task]
    policy.build_plan(1.0)
    (form,) = forms
    return form, policy.engine.latency_slo_ms / policy.slo_slack_factor


def task_capacity_qps(pipeline, task, budget_ms, num_workers):
    """The task's share of the cluster at its fastest latency-feasible batch of any variant."""
    throughput = max(
        variant.throughput_qps(batch)
        for variant in pipeline.registry.variants(task)
        for batch in variant.batch_sizes
        if variant.latency_ms(batch) <= budget_ms
    )
    return throughput * num_workers / len(pipeline.tasks)


def demand_points(pipeline, budget_ms, num_workers):
    tasks = list(pipeline.tasks)
    capacity = {task: task_capacity_qps(pipeline, task, budget_ms, num_workers) for task in tasks}
    points = [{task: factor * capacity[task] for task in tasks} for factor in UNIFORM_FACTORS]
    for first, rest in SKEWED_FACTORS:
        points.append({task: (first if i == 0 else rest) * capacity[task] for i, task in enumerate(tasks)})
    return points


def assert_models_agree(pipeline, num_workers, monkeypatch):
    """Both models agree on feasibility and objective at every demand point; returns whether each point is feasible."""
    budget_ms = pipeline.latency_slo_ms / 2.0
    outcomes = []
    for demands in demand_points(pipeline, budget_ms, num_workers):
        reduced, reduced_budget = reduced_form(pipeline, demands, num_workers, monkeypatch)
        assert reduced_budget == budget_ms
        full = all_batches_form(pipeline, demands, budget_ms, num_workers)
        reduced_solution = solve(reduced, cache=False, **EXACT)
        full_solution = solve(full, cache=False, **EXACT)
        assert reduced_solution.is_optimal == full_solution.is_optimal, demands
        if full_solution.is_optimal:
            assert reduced_solution.info["optimal_proven"] and full_solution.info["optimal_proven"]
            assert reduced_solution.objective == pytest.approx(full_solution.objective, rel=0, abs=1e-9), demands
        outcomes.append(full_solution.is_optimal)
    return outcomes


def non_monotone_pipeline():
    """Two tasks whose variants' throughput is not monotone in batch size.

    ``lumpy`` is fastest at batch 2 (166.7 QPS) and slowest at batches 1 and
    4 (100 QPS), while its largest batch, 8, runs at 133.3 QPS; ``steady`` is
    fastest at its largest feasible batch, as every zoo variant is.
    """

    def variant(name, accuracy, table):
        return ModelVariant(
            name=name,
            family=name.split("_")[0],
            accuracy=accuracy,
            base_latency_ms=5.0,
            per_item_latency_ms=1.0,
            batch_sizes=tuple(sorted(table)),
            latency_table=table,
        )

    registry = ProfileRegistry()
    registry.register("detect", variant("lumpy_hi", 1.0, {1: 10.0, 2: 12.0, 4: 40.0, 8: 60.0}))
    registry.register("detect", variant("lumpy_lo", 0.8, {1: 5.0, 2: 6.0, 4: 20.0, 8: 30.0}))
    registry.register("classify", variant("steady_hi", 1.0, {1: 8.0, 2: 10.0, 4: 16.0, 8: 90.0}))
    registry.register("classify", variant("steady_lo", 0.85, {1: 4.0, 2: 5.0, 4: 8.0, 8: 14.0}))
    return Pipeline(
        "non_monotone",
        [Task("detect"), Task("classify")],
        [Edge("detect", "classify", branch_ratio=1.0)],
        registry,
        latency_slo_ms=150.0,
    )


@pytest.mark.parametrize("num_workers", CLUSTERS)
@pytest.mark.parametrize("factory", [traffic_analysis_pipeline, social_media_pipeline])
def test_reduced_model_is_exact_on_zoo_pipelines(factory, num_workers, monkeypatch):
    outcomes = assert_models_agree(factory(), num_workers, monkeypatch)
    # the grid covers both sides of the feasibility boundary
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("num_workers", CLUSTERS)
def test_reduced_model_is_exact_when_throughput_is_not_monotone(num_workers, monkeypatch):
    outcomes = assert_models_agree(non_monotone_pipeline(), num_workers, monkeypatch)
    assert any(outcomes) and not all(outcomes)


def test_one_configuration_per_variant(monkeypatch):
    pipeline = traffic_analysis_pipeline()
    demands = {task: 100.0 for task in pipeline.tasks}
    reduced, budget_ms = reduced_form(pipeline, demands, 20, monkeypatch)
    full = all_batches_form(pipeline, demands, budget_ms, 20)
    assert (reduced.num_vars, full.num_vars) == (40, 196)


def test_batch_rule_takes_the_highest_throughput_then_the_smaller_batch():
    registry = non_monotone_pipeline().registry
    lumpy = registry.variants("detect")[0]
    assert lumpy.name == "lumpy_hi"
    assert proteus.proteus_batch(lumpy, 75.0) == 2  # not the largest fitting batch, 8
    assert proteus.proteus_batch(lumpy, 11.0) == 1
    assert proteus.proteus_batch(lumpy, 9.0) is None
    tied = ModelVariant("tied", "tied", 1.0, 5.0, 1.0, batch_sizes=(1, 2, 4), latency_table={1: 10.0, 2: 20.0, 4: 30.0})
    assert tied.throughput_qps(1) == tied.throughput_qps(2)
    assert proteus.proteus_batch(tied, 25.0) == 1


def test_zoo_batches_match_the_largest_fitting_batch():
    """On the zoo's linear profiles the rule is the largest batch within the
    budget, so the fill and fallback plans serve the batches they did before."""
    for pipeline in (traffic_analysis_pipeline(), social_media_pipeline()):
        budget_ms = pipeline.latency_slo_ms / 2.0
        for task in pipeline.tasks:
            for variant in pipeline.registry.variants(task):
                largest = max(b for b in variant.batch_sizes if variant.latency_ms(b) <= budget_ms)
                assert proteus.proteus_batch(variant, budget_ms) == largest
