"""Unit tests for the chaos smoke's closure check (scripts/chaos_smoke.py)."""

import copy
import dataclasses
import importlib.util
import pathlib

import pytest

from repro.scenarios import get_scenario

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "chaos_smoke.py"

spec = importlib.util.spec_from_file_location("chaos_smoke", SCRIPT)
chaos_smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(chaos_smoke)


@pytest.fixture(scope="module")
def summary():
    return get_scenario("chaos_crash_restart").run(seed=0)


def test_a_chaos_run_closes(summary):
    assert summary.late_requests > 0 and summary.completed_requests > 0
    assert chaos_smoke.closure_problems(summary) == []


def test_interval_tally_that_diverges_is_a_leak(summary):
    intervals = copy.deepcopy(summary.intervals)
    moved = next(iv for iv in intervals if iv.late)
    moved.late -= 1
    moved.completed += 1
    problems = chaos_smoke.closure_problems(dataclasses.replace(summary, intervals=intervals))
    assert problems == [
        f"interval completed={summary.completed_requests + 1} but the summary has {summary.completed_requests}",
        f"interval late={summary.late_requests - 1} but the summary has {summary.late_requests}",
    ]


def test_counter_that_diverges_is_a_leak(summary):
    telemetry = {**summary.telemetry, "requests.dropped": summary.telemetry["requests.dropped"] + 1}
    problems = chaos_smoke.closure_problems(dataclasses.replace(summary, telemetry=telemetry))
    assert problems == [f"requests.dropped={summary.dropped_requests + 1} but the summary has {summary.dropped_requests}"]


def test_unclosed_books_are_a_leak(summary):
    problems = chaos_smoke.closure_problems(dataclasses.replace(summary, total_requests=summary.total_requests + 1))
    submitted = summary.total_requests + 1
    assert problems == [
        f"{submitted - 1} finished != {submitted} submitted",
        f"frontend.requests={submitted - 1} != {submitted} submitted",
    ]
