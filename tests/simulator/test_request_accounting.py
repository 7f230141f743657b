"""Request accounting, checked against the requests themselves.

The metrics collector writes each request fact once: an arrival to its
interval, an outcome to its interval and to one ``requests.*`` counter.  The
summary's run totals are read back from those records.  This test counts
from outside the collector instead: it keeps every ``Request`` that
``Frontend.submit`` returns and classifies each by its own final status, then
checks that every tally of the run agrees with that count:

* per status, the summary total, the sum over the intervals and the
  ``requests.*`` counter;
* the number of requests, ``summary.total_requests`` and the
  ``frontend.requests`` counter;
* each request reaches ``record_request_finished`` at most once, and every
  request that finished reaches it.

The scenarios cover the plain data plane (``smoke``, ``traffic_azure``), a
worker failure (``smoke_failure``) and the resilience layer's retries,
failover, timeouts and hedges (``chaos_crash_restart``, ``chaos_stragglers``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.scenarios import get_scenario
from repro.simulator.frontend import Frontend
from repro.simulator.metrics import MetricsCollector
from repro.simulator.query import RequestStatus

DURATION_S = 15
SCENARIOS = ("smoke", "smoke_failure", "chaos_crash_restart", "chaos_stragglers", "traffic_azure")
#: each finished status, with the summary field and interval field that count it
OUTCOMES = (
    (RequestStatus.COMPLETED, "completed_requests", "completed"),
    (RequestStatus.DROPPED, "dropped_requests", "dropped"),
    (RequestStatus.LATE, "late_requests", "late"),
)


@pytest.fixture(scope="module", params=SCENARIOS)
def accounted_run(request):
    """One scenario run at seed 0 with every submitted request kept and every
    ``record_request_finished`` call counted per request id."""
    spec = get_scenario(request.param)
    spec = spec.with_overrides(trace_params={**spec.trace_params, "duration_s": DURATION_S})
    sim = spec.build(seed=0)
    submitted = []
    recorded = Counter()
    submit = Frontend.submit
    record = MetricsCollector.record_request_finished

    def collecting_submit(self):
        issued = submit(self)
        submitted.append(issued)
        return issued

    def counting_record(self, finished):
        recorded[finished.request_id] += 1
        record(self, finished)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Frontend, "submit", collecting_submit)
        patch.setattr(MetricsCollector, "record_request_finished", counting_record)
        summary = sim.run()
    return summary, submitted, recorded


def test_every_request_is_counted_once(accounted_run):
    summary, submitted, _ = accounted_run
    assert submitted
    assert [r.request_id for r in submitted] == list(range(len(submitted)))
    assert len(submitted) == summary.total_requests == summary.telemetry["frontend.requests"]
    assert sum(iv.demand for iv in summary.intervals) == len(submitted)


def test_outcomes_match_every_tally(accounted_run):
    summary, submitted, _ = accounted_run
    by_status = Counter(r.status for r in submitted)
    for status, summary_field, interval_field in OUTCOMES:
        expected = by_status[status]
        assert getattr(summary, summary_field) == expected, status
        assert sum(getattr(iv, interval_field) for iv in summary.intervals) == expected, status
        assert summary.telemetry[f"requests.{interval_field}"] == expected, status
    violated = by_status[RequestStatus.DROPPED] + by_status[RequestStatus.LATE]
    assert summary.violated_requests == violated
    assert sum(iv.violations for iv in summary.intervals) == violated


def test_each_finished_request_is_recorded_exactly_once(accounted_run):
    _, submitted, recorded = accounted_run
    assert max(recorded.values(), default=0) <= 1
    finished = {r.request_id for r in submitted if r.status is not RequestStatus.IN_FLIGHT}
    assert set(recorded) == finished


def test_latency_record_holds_each_request_with_results(accounted_run):
    summary, submitted, _ = accounted_run
    with_results = [r for r in submitted if r.status in (RequestStatus.COMPLETED, RequestStatus.LATE)]
    assert summary.telemetry["requests.latency_ms.count"] == len(with_results)
