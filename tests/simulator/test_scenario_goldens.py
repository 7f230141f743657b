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
        'completed_requests': 101,
        'violated_requests': 364,
        'dropped_requests': 128,
        'late_requests': 236,
        'slo_violation_ratio': 0.7827956989247312,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 38.56095782381813,
        'p99_latency_ms': 100.13171476010818,
    },
    'chaos_stragglers': {
        'total_requests': 465,
        'completed_requests': 177,
        'violated_requests': 288,
        'dropped_requests': 0,
        'late_requests': 288,
        'slo_violation_ratio': 0.6193548387096774,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 49.8787491150397,
        'p99_latency_ms': 134.9788651679608,
    },
    'jsq_heterogeneous': {
        'total_requests': 3053,
        'completed_requests': 1247,
        'violated_requests': 1806,
        'dropped_requests': 0,
        'late_requests': 1806,
        'slo_violation_ratio': 0.5915492957746479,
        'mean_accuracy': 0.9976119788054335,
        'min_interval_accuracy': 0.9941305513576761,
        'max_accuracy_drop': 0.00586944864232386,
        'mean_utilization': 0.5677083333333333,
        'peak_workers': 12,
        'mean_workers': 6.8125,
        'mean_latency_ms': 46.31266487665791,
        'p99_latency_ms': 143.33489473924894,
    },
    'slo_feedback_flash_crowd': {
        'total_requests': 6376,
        'completed_requests': 4258,
        'violated_requests': 2118,
        'dropped_requests': 0,
        'late_requests': 2118,
        'slo_violation_ratio': 0.3321831869510665,
        'mean_accuracy': 0.9936898228975077,
        'min_interval_accuracy': 0.9917288223727941,
        'max_accuracy_drop': 0.008271177627205861,
        'mean_utilization': 0.9010416666666667,
        'peak_workers': 12,
        'mean_workers': 10.8125,
        'mean_latency_ms': 45.135845264204825,
        'p99_latency_ms': 125.25320664774547,
    },
    'smoke': {
        'total_requests': 465,
        'completed_requests': 460,
        'violated_requests': 5,
        'dropped_requests': 0,
        'late_requests': 5,
        'slo_violation_ratio': 0.010752688172043012,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 43.83245336565025,
        'p99_latency_ms': 137.22653864066908,
    },
    'smoke_failure': {
        'total_requests': 465,
        'completed_requests': 376,
        'violated_requests': 89,
        'dropped_requests': 2,
        'late_requests': 87,
        'slo_violation_ratio': 0.1913978494623656,
        'mean_accuracy': 1.0,
        'min_interval_accuracy': 1.0,
        'max_accuracy_drop': 0.0,
        'mean_utilization': 0.3125,
        'peak_workers': 2,
        'mean_workers': 1.875,
        'mean_latency_ms': 44.18089810806973,
        'p99_latency_ms': 138.18205089003033,
    },
    'social_twitter_bursty': {
        'total_requests': 5100,
        'completed_requests': 1346,
        'violated_requests': 3754,
        'dropped_requests': 3469,
        'late_requests': 285,
        'slo_violation_ratio': 0.736078431372549,
        'mean_accuracy': 0.9031039516307994,
        'min_interval_accuracy': 0.8810555353095885,
        'max_accuracy_drop': 0.11894446469041153,
        'mean_utilization': 0.7852941176470588,
        'peak_workers': 20,
        'mean_workers': 15.705882352941176,
        'mean_latency_ms': 63.90921621690137,
        'p99_latency_ms': 227.59108683197667,
    },
    'traffic_demand_surge': {
        'total_requests': 4497,
        'completed_requests': 4476,
        'violated_requests': 21,
        'dropped_requests': 11,
        'late_requests': 10,
        'slo_violation_ratio': 0.004669779853235491,
        'mean_accuracy': 0.9959957553601387,
        'min_interval_accuracy': 0.99574992813985,
        'max_accuracy_drop': 0.004250071860150029,
        'mean_utilization': 0.9375,
        'peak_workers': 20,
        'mean_workers': 18.75,
        'mean_latency_ms': 78.84958480921463,
        'p99_latency_ms': 206.18654905557665,
    },
    'traffic_worker_failure': {
        'total_requests': 4048,
        'completed_requests': 3744,
        'violated_requests': 304,
        'dropped_requests': 213,
        'late_requests': 91,
        'slo_violation_ratio': 0.07509881422924901,
        'mean_accuracy': 0.9973589070469615,
        'min_interval_accuracy': 0.9950215594343715,
        'max_accuracy_drop': 0.004978440565628461,
        'mean_utilization': 0.8823529411764706,
        'peak_workers': 20,
        'mean_workers': 17.647058823529413,
        'mean_latency_ms': 84.51194810336942,
        'p99_latency_ms': 209.9127113133826,
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
