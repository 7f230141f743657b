"""Per-rule fixture tests: every rule catches its bad fixture, passes its good one.

Each rule under ``src/repro/lint/rules`` ships a deliberately-broken fixture
and a fixed twin under ``tests/lint/fixtures``.  The engine runs with
``respect_scopes=False`` because the rules are scoped to ``src/repro`` while
the fixtures live under ``tests/``.  Deleting a rule fails both its fixture
case here and the registry-completeness test below.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules, get_rule
from repro.lint.registry import ParsedFile

FIXTURES = Path(__file__).parent / "fixtures"

#: every shipped rule and the lines its bad fixture must be flagged on (R001:
#: an unseeded stream, then a ``(seed, salt)`` key whose seed is a constant)
EXPECTED = {
    "R001": [7, 12],
    "R002": [7],
    "R003": [7],
    "R005": [5],
    "R006": [7],
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
    assert [(f.rule, f.line) for f in findings] == [(rule_id, line) for line in EXPECTED[rule_id]], (
        f"{rule_id} flagged lines {[f.line for f in findings]}, expected {EXPECTED[rule_id]}: "
        + "; ".join(f.message for f in findings)
    )


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_good_fixture_is_clean(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_good.py"
    findings = run_rule(rule_id, path)
    assert findings == [], (
        f"{rule_id} false-positived on its good fixture: "
        + "; ".join(f"{f.line}: {f.message}" for f in findings)
    )


def test_salted_stream_key_must_carry_the_seed():
    """R001 passes a ``(seed, salt)`` side-stream key and flags the same key
    with a constant seed, which every seed of a sweep would share."""
    findings = run_rule("R001", FIXTURES / "r001_bad.py")
    assert "not derived from a seed" in findings[-1].message
    source = (FIXTURES / "r001_good.py").read_text()
    assert "default_rng((seed, 0x5E51))" in source


def test_wall_clock_solver_budgets_are_flagged():
    """R002 flags a wall-clock solver budget as a dict entry and as a keyword argument."""
    findings = run_rule("R002", FIXTURES / "r002_solver_budget_bad.py")
    assert [(f.rule, f.line) for f in findings] == [("R002", 5), ("R002", 9)]
    assert run_rule("R002", FIXTURES / "r002_solver_budget_good.py") == []


def test_split_must_bind_the_two_argument_call():
    """R006 flags a split requiring a third argument (positional or keyword-only)
    or taking fewer than two, and passes the two-argument form and optional extras."""
    findings = run_rule("R006", FIXTURES / "r006_split_bad.py")
    assert [(f.rule, f.line) for f in findings] == [("R006", 7), ("R006", 12), ("R006", 17)]
    assert run_rule("R006", FIXTURES / "r006_split_good.py") == []


def test_solver_package_may_define_the_wall_clock_limit():
    """The solver package defines the wall-clock option, so R002 leaves it alone there."""
    text = (FIXTURES / "r002_solver_budget_bad.py").read_text()
    parsed = ParsedFile(path="src/repro/solver/__init__.py", text=text, tree=ast.parse(text))
    assert list(get_rule("R002").check(parsed)) == []
    parsed = ParsedFile(path="src/repro/core/allocation.py", text=text, tree=ast.parse(text))
    assert len(list(get_rule("R002").check(parsed))) == 2


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
