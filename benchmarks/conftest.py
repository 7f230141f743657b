"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures (or an ablation
of one of its design choices).  The underlying experiments are
full simulations, so each benchmark executes exactly one round via
``benchmark.pedantic`` and prints the regenerated rows/series; wall-clock time
is reported by pytest-benchmark as usual.

The experiment durations used here are compressed relative to the defaults in
``repro.experiments`` (and much compressed relative to the paper's day-long
traces) so that ``pytest benchmarks/ --benchmark-only`` completes in minutes.
Run ``python scripts/run_all_experiments.py`` for the full-size runs.
"""

import pytest


def run_once(benchmark, fn, **kwargs):
    """Execute ``fn(**kwargs)`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
