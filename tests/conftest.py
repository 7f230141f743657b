"""Shared fixtures for the test suite.

Most control-plane tests use small synthetic pipelines (fast MILP solves); the
two paper pipelines are exercised by a smaller number of integration tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.pipeline import Edge, Pipeline, Task
from repro.core.profiles import ModelVariant, ProfileRegistry
from repro.solver import StandardForm
from repro.zoo import linear_pipeline, single_task_pipeline, social_media_pipeline, traffic_analysis_pipeline


def make_variant(
    name: str,
    accuracy: float = 1.0,
    family: str = "test",
    alpha: float = 2.0,
    beta: float = 4.0,
    factor: float = 1.0,
    batch_sizes=(1, 2, 4, 8),
    load_time_ms: float = 500.0,
) -> ModelVariant:
    """Helper used across the suite to build small synthetic variants."""
    return ModelVariant(
        name=name,
        family=family,
        accuracy=accuracy,
        base_latency_ms=alpha,
        per_item_latency_ms=beta,
        multiplicative_factor=factor,
        batch_sizes=batch_sizes,
        load_time_ms=load_time_ms,
    )


def standard_form(c, A_ub=None, b_ub=(), A_eq=None, b_eq=(), lb=None, ub=None, integer=None, maximize=False):
    """``StandardForm`` of ``min``/``max c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq`` from dense rows.

    Bounds default to ``[0, inf)`` and every column to continuous.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    sense = -1 if maximize else 1
    return StandardForm(
        c=sense * c,
        A_ub=sparse.csr_matrix(np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)),
        b_ub=np.asarray(b_ub, dtype=float),
        A_eq=sparse.csr_matrix(np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)),
        b_eq=np.asarray(b_eq, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
        integrality=np.zeros(n) if integer is None else np.asarray(integer, dtype=float),
        sense=sense,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def two_variant_registry():
    registry = ProfileRegistry()
    registry.register("detect", make_variant("detect_big", accuracy=1.0, beta=6.0, factor=2.0))
    registry.register("detect", make_variant("detect_small", accuracy=0.8, beta=2.0, factor=1.6))
    registry.register("classify", make_variant("classify_big", accuracy=1.0, beta=4.0))
    registry.register("classify", make_variant("classify_small", accuracy=0.85, beta=1.5))
    return registry


@pytest.fixture
def small_pipeline(two_variant_registry):
    """A two-task chain: detect -> classify, with two variants per task."""
    return Pipeline(
        "small",
        [Task("detect"), Task("classify")],
        [Edge("detect", "classify", branch_ratio=1.0)],
        two_variant_registry,
        latency_slo_ms=150.0,
    )


@pytest.fixture
def branching_pipeline():
    """A fan-out pipeline: detect -> {classify_a (0.6), classify_b (0.4)}."""
    registry = ProfileRegistry()
    registry.register("detect", make_variant("det_hi", accuracy=1.0, beta=5.0, factor=2.5, family="det"))
    registry.register("detect", make_variant("det_lo", accuracy=0.7, beta=2.0, factor=2.0, family="det"))
    registry.register("classify_a", make_variant("clsa_hi", accuracy=1.0, beta=4.0, family="clsa"))
    registry.register("classify_a", make_variant("clsa_lo", accuracy=0.9, beta=1.5, family="clsa"))
    registry.register("classify_b", make_variant("clsb_hi", accuracy=1.0, beta=3.0, family="clsb"))
    registry.register("classify_b", make_variant("clsb_lo", accuracy=0.8, beta=1.2, family="clsb"))
    return Pipeline(
        "branching",
        [Task("detect"), Task("classify_a"), Task("classify_b")],
        [Edge("detect", "classify_a", 0.6), Edge("detect", "classify_b", 0.4)],
        registry,
        latency_slo_ms=200.0,
    )


@pytest.fixture
def chain_pipeline():
    return linear_pipeline(num_tasks=3, variants_per_task=2, latency_slo_ms=300.0)


@pytest.fixture
def single_pipeline():
    return single_task_pipeline(latency_slo_ms=150.0)


@pytest.fixture(scope="session")
def traffic_pipeline():
    return traffic_analysis_pipeline(latency_slo_ms=250.0)


@pytest.fixture(scope="session")
def social_pipeline():
    return social_media_pipeline(latency_slo_ms=250.0)
