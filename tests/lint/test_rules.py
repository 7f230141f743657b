"""Per-rule fixture tests: every rule catches its bad fixture, passes its good one.

Each rule under ``src/repro/lint/rules`` ships a deliberately-broken fixture
and a fixed twin under ``tests/lint/fixtures``.  The engine runs with
``respect_scopes=False`` because the rules are scoped to ``src/repro`` while
the fixtures live under ``tests/``.  Deleting a rule fails both its fixture
case here and the registry-completeness test below.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules, get_rule

FIXTURES = Path(__file__).parent / "fixtures"

#: every shipped rule and the line its bad fixture must be flagged on
EXPECTED = {
    "R001": 7,
    "R002": 7,
    "R003": 7,
    "R005": 5,
    "R006": 7,
}


def run_rule(rule_id: str, path: Path):
    engine = LintEngine(root=Path.cwd(), select=[rule_id], respect_scopes=False)
    kept, suppressed = engine.check_file(path)
    return kept


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_bad_fixture_is_flagged_at_expected_line(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_bad.py"
    findings = run_rule(rule_id, path)
    assert findings, f"{rule_id} did not flag its bad fixture {path.name}"
    assert [f.rule for f in findings] == [rule_id]
    assert findings[0].line == EXPECTED[rule_id], (
        f"{rule_id} flagged line {findings[0].line}, expected {EXPECTED[rule_id]}: "
        f"{findings[0].message}"
    )


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_good_fixture_is_clean(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_good.py"
    findings = run_rule(rule_id, path)
    assert findings == [], (
        f"{rule_id} false-positived on its good fixture: "
        + "; ".join(f"{f.line}: {f.message}" for f in findings)
    )


def test_registry_is_complete():
    """All five rules are registered; deleting one fails here by id."""
    registered = {rule.id for rule in all_rules()}
    assert registered == set(EXPECTED)


def test_every_rule_documents_its_history():
    """Each rule docstring names the bug class it pins (the 'History:' note)."""
    for rule in all_rules():
        doc = rule.__doc__ or ""
        assert rule.id in doc, f"{rule.id} docstring does not state its id"
        assert "History" in doc, f"{rule.id} docstring lacks a History note"


def test_get_rule_roundtrip():
    for rule_id in EXPECTED:
        assert get_rule(rule_id).id == rule_id


def test_rule_scopes_are_respected_by_default():
    """With scoping on, src/repro-scoped rules skip the fixture tree entirely."""
    engine = LintEngine(root=Path.cwd())
    result = engine.run([FIXTURES])
    assert result.active == []
    assert result.files_checked == len(list(FIXTURES.glob("*.py")))


def test_select_unknown_rule_raises():
    with pytest.raises(ValueError, match="R999"):
        LintEngine(root=Path.cwd(), select=["R999"])
