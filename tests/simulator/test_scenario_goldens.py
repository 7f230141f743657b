"""Seed-0 summary goldens for the builtin scenarios.

The simulator has one data-plane path (scalar dispatch, the heap event
calendar, ``Request``/``IntermediateQuery`` objects).  Its RNG stream is the
reference every earlier execution path was compared against, so a refactor of
the data plane must leave these summaries unchanged digit for digit.  Each
scenario runs once at seed 0 with ``duration_s=15``; the runs are cached and
shared by the golden, accounting and per-interval checks below.

Regenerate a golden only for a change that is *meant* to move the RNG stream,
and say so in the change description.
"""

import dataclasses
import functools
import math

import pytest

from repro.scenarios import get_scenario

GOLDEN_DURATION_S = 15

#: the builtin scenarios that finish a 15 s trace in about a second or less;
#: the longer overload scenarios are left out to keep tier-1 fast
GOLDENS = {
    'chaos_crash_restart': {
        'total_requests': 465,
        'completed_requests': 84,
        'violated_requests': 381,
        'dropped_requests': 140,
        'late_requests': 241,
        'slo_violation_ratio': 0.8193548387096774,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 44.51362967038059,
        'p99_latency_ms': 129.9820080235405,
    },
    'chaos_stragglers': {
        'total_requests': 465,
        'completed_requests': 123,
        'violated_requests': 342,
        'dropped_requests': 0,
        'late_requests': 342,
        'slo_violation_ratio': 0.7354838709677419,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 49.658187985666416,
        'p99_latency_ms': 115.21895961907683,
    },
    # re-pinned when accuracy scaling began solving the full MILP only when no
    # restricted MILP of repro.core.allocation found a plan: Loki's plans moved
    'jsq_heterogeneous': {
        'total_requests': 3053,
        'completed_requests': 1252,
        'violated_requests': 1801,
        'dropped_requests': 0,
        'late_requests': 1801,
        'slo_violation_ratio': 0.5899115623976416,
        'mean_accuracy': 0.9976228581730625,
        'min_interval_accuracy': 0.9942215505614329,
        'max_accuracy_drop': 0.00577844943856709,
        'mean_utilization': 0.5677083333333333,
        'peak_workers': 12,
        'mean_workers': 6.8125,
        'mean_latency_ms': 46.37654825991641,
        'p99_latency_ms': 145.11388410525495,
    },
    # re-pinned when accuracy scaling began returning the support incumbent
    # of repro.core.allocation: SLO feedback's plans moved within the gap
    'slo_feedback_flash_crowd': {
        'total_requests': 6376,
        'completed_requests': 4459,
        'violated_requests': 1917,
        'dropped_requests': 0,
        'late_requests': 1917,
        'slo_violation_ratio': 0.30065872020075285,
        'mean_accuracy': 0.9934596819924867,
        'min_interval_accuracy': 0.9916963226571665,
        'max_accuracy_drop': 0.008303677342833549,
        'mean_utilization': 0.9010416666666667,
        'peak_workers': 12,
        'mean_workers': 10.8125,
        'mean_latency_ms': 47.39928460595361,
        'p99_latency_ms': 128.28103358394523,
    },
    'smoke': {
        'total_requests': 465,
        'completed_requests': 464,
        'violated_requests': 1,
        'dropped_requests': 0,
        'late_requests': 1,
        'slo_violation_ratio': 0.002150537634408602,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 46.475765847404226,
        'p99_latency_ms': 129.35994810960327,
    },
    'smoke_failure': {
        'total_requests': 465,
        'completed_requests': 339,
        'violated_requests': 126,
        'dropped_requests': 2,
        'late_requests': 124,
        'slo_violation_ratio': 0.2709677419354839,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 48.21360174641405,
        'p99_latency_ms': 132.22654437727527,
    },
    # re-pinned when accuracy scaling began solving the full MILP only when no
    # restricted MILP of repro.core.allocation found a plan: Loki's plans moved
    'social_twitter_bursty': {
        'total_requests': 5100,
        'completed_requests': 1364,
        'violated_requests': 3736,
        'dropped_requests': 3524,
        'late_requests': 212,
        'slo_violation_ratio': 0.7325490196078431,
        'mean_accuracy': 0.9033009865853743,
        'min_interval_accuracy': 0.8795291391572863,
        'max_accuracy_drop': 0.12047086084271375,
        'mean_utilization': 0.7852941176470588,
        'peak_workers': 20,
        'mean_workers': 15.705882352941176,
        'mean_latency_ms': 63.351036514149605,
        'p99_latency_ms': 219.56988634851825,
    },
    'traffic_demand_surge': {
        'total_requests': 4497,
        'completed_requests': 4455,
        'violated_requests': 42,
        'dropped_requests': 15,
        'late_requests': 27,
        'slo_violation_ratio': 0.009339559706470981,
        'mean_accuracy': 0.9959576315365826,
        'min_interval_accuracy': 0.9955822130313062,
        'max_accuracy_drop': 0.004417786968693771,
        'mean_utilization': 0.9375,
        'peak_workers': 20,
        'mean_workers': 18.75,
        'mean_latency_ms': 79.78472318951933,
        'p99_latency_ms': 202.84964626953928,
    },
    'traffic_worker_failure': {
        'total_requests': 4048,
        'completed_requests': 3980,
        'violated_requests': 68,
        'dropped_requests': 2,
        'late_requests': 66,
        'slo_violation_ratio': 0.016798418972332016,
        'mean_accuracy': 0.9980627227348118,
        'min_interval_accuracy': 0.9965313822114061,
        'max_accuracy_drop': 0.003468617788593864,
        'mean_utilization': 0.9375,
        'peak_workers': 20,
        'mean_workers': 18.75,
        'mean_latency_ms': 86.54700370995442,
        'p99_latency_ms': 222.87141786147572,
    },
    'validation_uniform': {
        'total_requests': 2250,
        'completed_requests': 2231,
        'violated_requests': 19,
        'dropped_requests': 0,
        'late_requests': 19,
        'slo_violation_ratio': 0.008444444444444444,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.703125,
        'peak_workers': 15,
        'mean_workers': 14.0625,
        'mean_latency_ms': 98.65341401464235,
        'p99_latency_ms': 225.95000000000294,
    },
}

_UNPINNED_FIELDS = ("intervals", "telemetry", "fault_timeline")


@functools.lru_cache(maxsize=None)
def _summary(name):
    spec = get_scenario(name)
    trace_params = {**spec.trace_params, "duration_s": GOLDEN_DURATION_S}
    return spec.with_overrides(trace_params=trace_params).run(seed=0)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_summary_matches_golden(name):
    summary = _summary(name)
    pinned = {
        f.name for f in dataclasses.fields(summary) if f.name not in _UNPINNED_FIELDS
    }
    assert pinned == set(GOLDENS[name]), "golden must pin every scalar summary field"
    for field, expected in GOLDENS[name].items():
        observed = getattr(summary, field)
        if isinstance(expected, int):
            assert observed == expected, field
        else:
            assert observed == pytest.approx(expected, rel=1e-12, abs=1e-15), field


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_every_request_finishes_exactly_once(name):
    summary = _summary(name)
    finished = summary.completed_requests + summary.dropped_requests + summary.late_requests
    assert finished == summary.total_requests
    assert summary.violated_requests == summary.dropped_requests + summary.late_requests
    assert summary.slo_violation_ratio == pytest.approx(
        summary.violated_requests / summary.total_requests
    )


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_interval_series_sums_to_summary(name):
    summary = _summary(name)
    intervals = summary.intervals
    assert intervals, "a run must report at least one interval"
    starts = [iv.start_s for iv in intervals]
    assert starts == sorted(starts)
    assert sum(iv.completed for iv in intervals) == summary.completed_requests
    assert sum(iv.dropped for iv in intervals) == summary.dropped_requests
    assert sum(iv.late for iv in intervals) == summary.late_requests
    assert max(iv.active_workers for iv in intervals) == summary.peak_workers
    assert all(math.isfinite(iv.mean_accuracy) for iv in intervals)
