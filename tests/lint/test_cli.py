"""CLI, reporters, and the self-run: the analyzer must pass over its own repo."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules, render
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_dirty_module(tmp_path: Path) -> Path:
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(
            """\
            import time


            def stamp():
                return time.perf_counter()
            """
        )
    )
    return path


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("X = 1\n")
    assert main([str(tmp_path), "--root", str(tmp_path), "--no-scopes"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_one_on_findings(tmp_path, capsys):
    write_dirty_module(tmp_path)
    assert main([str(tmp_path), "--root", str(tmp_path), "--no-scopes"]) == 1
    out = capsys.readouterr().out
    assert "mod.py:5" in out and "R002" in out


def test_exit_two_on_unknown_rule(tmp_path, capsys):
    assert main([str(tmp_path), "--root", str(tmp_path), "--select", "R999"]) == 2


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "nope"), "--root", str(tmp_path)]) == 2


def test_json_report_parses(tmp_path, capsys):
    write_dirty_module(tmp_path)
    main([str(tmp_path), "--root", str(tmp_path), "--no-scopes", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["clean", "files_checked", "findings", "suppressed"]
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["R002"]


def test_markdown_report_mentions_rule_counts(tmp_path, capsys):
    write_dirty_module(tmp_path)
    main([str(tmp_path), "--root", str(tmp_path), "--no-scopes", "--format", "markdown"])
    out = capsys.readouterr().out
    assert "repro.lint" in out and "R002" in out


@pytest.mark.parametrize("flag", ["--baseline=x.json", "--no-baseline", "--strict-baseline", "--write-baseline"])
def test_there_is_no_baseline_flag(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([str(tmp_path), "--root", str(tmp_path), flag])
    assert exit_info.value.code == 2


def test_list_rules_prints_the_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_only_an_inline_suppression_accepts_a_finding(tmp_path, capsys):
    """A baseline file next to the code excuses nothing; a justified inline comment does."""
    path = write_dirty_module(tmp_path)
    (tmp_path / ".reprolint-baseline.json").write_text(json.dumps({
        "version": 1,
        "entries": [{"rule": "R002", "path": "mod.py", "code": "return time.perf_counter()", "note": "x"}],
    }))
    args = [str(tmp_path), "--root", str(tmp_path), "--no-scopes"]
    assert main(args) == 1
    path.write_text(path.read_text().replace(
        "time.perf_counter()", "time.perf_counter()  # reprolint: disable=R002 -- test"))
    assert main(args) == 0
    assert "1 suppressed inline" in capsys.readouterr().out


def test_lint_self_clean():
    """The repo lints itself: zero findings over src and tests, inline suppressions aside."""
    result = LintEngine(root=REPO_ROOT).run([REPO_ROOT / "src", REPO_ROOT / "tests"])
    rendered = render(result, "text")
    assert result.active == [], f"repo does not pass its own analyzer:\n{rendered}"
    assert result.files_checked > 100


def test_cli_self_run_exits_zero():
    """`python -m repro.lint src tests` — exactly what CI runs — exits 0."""
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src", "tests", "--root", str(REPO_ROOT)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
