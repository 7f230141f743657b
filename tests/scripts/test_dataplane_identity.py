"""Unit tests for the data-plane identity check (scripts/dataplane_identity.py)."""

import importlib.util
import json
import pathlib

import repro.simulator.runner as runner

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "dataplane_identity.py"

spec = importlib.util.spec_from_file_location("dataplane_identity", SCRIPT)
dataplane_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(dataplane_identity)

SUMMARY = {
    "total_requests": 10,
    "mean_latency_ms": float("nan"),
    "intervals": [{"demand": 3, "accuracy": 0.5}],
    "fault_timeline": [[1.0, "worker_failure"]],
    "telemetry": {"queries.dropped": 2.0},
}


def changed(**fields):
    return {**json.loads(json.dumps(SUMMARY)), **fields}


class TestCompareSummaries:
    def test_nan_equals_nan(self):
        assert dataplane_identity.compare_summaries(SUMMARY, changed()) == ([], [])

    def test_moved_value_and_lost_key_differ(self):
        b = changed(total_requests=11, intervals=[{"demand": 3, "accuracy": 0.25}])
        del b["fault_timeline"]
        differences, added = dataplane_identity.compare_summaries(SUMMARY, b)
        assert differences == ["fault_timeline", "intervals", "total_requests"]
        assert added == []

    def test_new_telemetry_key_is_listed_not_a_difference(self):
        b = changed(telemetry={"queries.dropped": 2.0, "queries.rerouted": 0.0})
        assert dataplane_identity.compare_summaries(SUMMARY, b) == ([], ["telemetry.queries.rerouted"])


def test_compare_records_counts_differing_scenarios(capsys):
    first = {"smoke": SUMMARY, "chaos": SUMMARY}
    second = {"smoke": changed(), "chaos": changed(total_requests=0)}
    assert dataplane_identity.compare_records(first, second) == 1
    out = capsys.readouterr().out
    assert "chaos: DIFFERENT in total_requests" in out
    assert "smoke: identical" in out
    assert "1 of 2 scenarios identical" in out


def test_write_then_compare_round_trips(tmp_path, monkeypatch):
    """A record written with NaN values reads back identical to itself."""
    monkeypatch.setattr(dataplane_identity, "run_scenario", lambda name: SUMMARY)
    path = tmp_path / "record.json"
    dataplane_identity.write_record(str(path), names=["smoke"])
    assert dataplane_identity.main(["--compare", str(path), str(path)]) == 0


def test_event_count_is_shown_not_compared(capsys):
    """The engine's event count moves with event-core changes that leave
    every summary identical: each line shows it, no scenario differs by it."""
    events = dataplane_identity.EVENTS
    first = {"smoke": {**SUMMARY, events: 100}, "chaos": SUMMARY, "same": {**SUMMARY, events: 5}}
    second = {
        "smoke": {**changed(), events: 103},
        "chaos": {**changed(), events: 7},
        "same": {**changed(), events: 5},
    }
    assert dataplane_identity.compare_records(first, second) == 0
    out = capsys.readouterr().out
    assert "smoke: identical; events 100 -> 103" in out
    assert "chaos: identical; events ? -> 7" in out
    assert "same: identical; events 5\n" in out
    assert "3 of 3 scenarios identical" in out


def test_run_scenario_records_the_event_count():
    record = dataplane_identity.run_scenario("smoke")
    assert record["total_requests"] > 0
    assert isinstance(record[dataplane_identity.EVENTS], int)
    assert record[dataplane_identity.EVENTS] > record["total_requests"]


def test_final_rng_state_shows_a_draw_no_summary_field_sees(monkeypatch, capsys):
    """One extra uniform after the run moves no summary field, only the
    recorded final state of the simulation stream."""
    events, state = dataplane_identity.EVENTS, dataplane_identity.RNG_STATE
    first = json.loads(json.dumps(dataplane_identity.run_scenario("smoke")))
    assert first[state]["bit_generator"] == "PCG64"
    run = runner.ServingSimulation.run

    def run_then_draw(self):
        summary = run(self)
        self.rng.random()
        return summary

    monkeypatch.setattr(runner.ServingSimulation, "run", run_then_draw)
    second = json.loads(json.dumps(dataplane_identity.run_scenario("smoke")))
    assert dataplane_identity.compare_summaries(first, second) == ([f"{state}.state.state"], [])
    assert dataplane_identity.compare_records({"smoke": first}, {"smoke": second}) == 1
    out = capsys.readouterr().out
    assert f"smoke: DIFFERENT in {state}.state.state; events {first[events]}\n" in out


def test_record_holds_traffic_azure_under_every_drop_policy_and_baseline():
    from repro.core.dropping import POLICY_NAMES
    from repro.scenarios import scenario_names
    from repro.scenarios.spec import SYSTEM_FACTORIES

    names = dataplane_identity.record_names()
    assert names[: len(scenario_names())] == list(scenario_names())
    assert names[len(scenario_names()) :] == [
        *(f"traffic_azure@{policy}" for policy in sorted(POLICY_NAMES)),
        "traffic_azure@inferline",
        "traffic_azure@proteus",
    ]
    assert "last_task_dropping" in POLICY_NAMES and "per_task_dropping" in POLICY_NAMES
    assert set(dataplane_identity.BASELINE_SYSTEMS) <= set(SYSTEM_FACTORIES) - {"loki"}
    assert not set(dataplane_identity.BASELINE_SYSTEMS) & set(POLICY_NAMES)


def test_policy_key_runs_the_scenario_under_that_policy(monkeypatch):
    built = []
    make_drop_policy = runner.make_drop_policy

    def recording(name):
        built.append(name)
        return make_drop_policy(name)

    monkeypatch.setattr(runner, "make_drop_policy", recording)
    record = dataplane_identity.run_scenario("smoke@per_task_dropping")
    assert built == ["per_task_dropping"]
    assert record["total_requests"] > 0


def test_system_key_runs_the_scenario_under_that_system(monkeypatch):
    from repro.scenarios import spec as scenario_spec

    built = []
    factory = scenario_spec.SYSTEM_FACTORIES["proteus"]

    def recording(*args, **kwargs):
        control_plane = factory(*args, **kwargs)
        built.append(type(control_plane).__name__)
        return control_plane

    monkeypatch.setitem(scenario_spec.SYSTEM_FACTORIES, "proteus", recording)
    record = dataplane_identity.run_scenario("smoke@proteus")
    assert built == ["ProteusControlPlane"]
    assert record["total_requests"] > 0
