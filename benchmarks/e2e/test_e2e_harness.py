"""Tier-1 checks of the end-to-end benchmark harness, on a 3-second smoke spec."""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


def run_harness(out_dir: Path, *args: str):
    """Exit code, ``--json`` output and result line of one in-process invocation."""
    out = out_dir / "result.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = harness.main([*args, "--json", str(out)])
    return code, json.loads(out.read_text()), json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "SETUP_CHILDREN", 1)  # one child process fewer keeps tier-1 fast
        code, out, line = run_harness(out_dir, "--workload", "smoke", "--seed", str(SEED), "--reps", "1", "--trace")
    assert code == 0, out["workloads"]["smoke"]["failures"]
    return out_dir, out, line


def test_every_declared_metric_is_emitted_with_its_unit(smoke, declared):
    _, out, line = smoke
    workload = out["workloads"]["smoke"]
    for metric in declared["end_to_end"]:
        assert workload["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in declared["per_layer"]:
        assert workload["per_layer"][metric["name"]]["unit"] == metric["unit"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }


def test_declared_names_and_units_are_well_formed(declared):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])


def test_spans_nest_and_self_times_are_not_negative(smoke):
    out_dir, _, _ = smoke
    exported = json.loads((out_dir / f"trace_smoke_seed{SEED}.spans.json").read_text())
    spans = [[s["id"], s["parent"], s["name"], s["start_s"], s["end_s"], s["args"]] for s in exported["spans"]]
    assert {s[2] for s in spans} >= {"ScenarioSpec.build", "ServingSimulation.run", "SimulationEngine.run", "milp"}
    assert tracer.check_nesting(spans) == []
    assert min(tracer.self_times(spans)) >= 0.0
    chrome = json.loads((out_dir / f"trace_smoke_seed{SEED}.chrome.json").read_text())
    assert len(chrome["traceEvents"]) == len(spans)
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in chrome["traceEvents"])


def test_layer_self_times_account_for_the_traced_run(smoke):
    _, out, _ = smoke
    layers = {name: entry["value"] for name, entry in out["workloads"]["smoke"]["per_layer"].items()}
    shares = tracer.layer_self_times(layers)
    assert all(seconds >= 0.0 for name, seconds in shares.items() if name != "unattributed")
    assert layers["simulator.events"] > 0 and layers["control.step.count"] > 0


def test_seed_reaches_build(smoke):
    out_dir, out, _ = smoke
    exported = json.loads((out_dir / f"trace_smoke_seed{SEED}.spans.json").read_text())
    builds = [s for s in exported["spans"] if s["name"] == "ScenarioSpec.build"]
    assert [s["args"]["seed"] for s in builds] == [SEED]
    assert out["seed"] == SEED


def test_a_workload_that_raises_counts_as_a_failed_run(tmp_path):
    code, out, line = run_harness(tmp_path, "--workload", "smoke_raises", "--reps", "1")
    assert code != 0
    assert out["runs_failed"] >= 1 and line["failed"] == out["runs_failed"]
    assert not line["correct"]
    assert "no_such_system" in out["workloads"]["smoke_raises"]["failures"][0]


def test_compare_applies_bounds_and_flags_noisy_metrics():
    spec = {"name": "run_cpu_s", "unit": "s", "better": "lower", "bound": 0.1}
    side = harness.stats
    steady = side([10.0, 10.1, 9.9, 10.0, 10.05])
    assert harness.verdict(spec, steady, side([12.0, 12.1, 11.9, 12.0, 12.05]))[1] == "worse"
    assert harness.verdict(spec, steady, side([8.0, 8.1, 7.9, 8.0, 8.05]))[1] == "better"
    assert harness.verdict(spec, steady, side([10.2, 10.1, 10.3, 10.2, 10.25]))[1] == "unchanged"
    noisy = side([8.0, 12.0, 10.0, 9.0, 11.0])
    assert harness.verdict(spec, noisy, side([8.5, 12.5, 10.5, 9.5, 11.5]))[1] == "unresolved"
