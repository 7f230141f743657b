"""Suppression-comment round-trips: trailing, region, next-line, malformed."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import LintEngine
from repro.lint.suppressions import scan_directives

RULE = "R002"  # wall-clock: easy to trigger deterministically

BASE = """\
import time


def stamp():
    return time.perf_counter(){suffix}
"""


def run_snippet(tmp_path: Path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    engine = LintEngine(root=tmp_path, select=[RULE], respect_scopes=False)
    return engine.check_file(path)


def test_unsuppressed_finding_is_kept(tmp_path):
    kept, suppressed = run_snippet(tmp_path, BASE.format(suffix=""))
    assert [f.rule for f in kept] == [RULE]
    assert suppressed == []


def test_trailing_disable_suppresses_only_its_line(tmp_path):
    kept, suppressed = run_snippet(
        tmp_path, BASE.format(suffix="  # reprolint: disable=R002 -- measured, not simulated")
    )
    assert kept == []
    assert [f.rule for f in suppressed] == [RULE]


def test_trailing_disable_for_other_rule_does_not_apply(tmp_path):
    kept, suppressed = run_snippet(
        tmp_path, BASE.format(suffix="  # reprolint: disable=R001")
    )
    assert [f.rule for f in kept] == [RULE]
    assert suppressed == []


def test_region_disable_enable(tmp_path):
    source = """\
    import time

    # reprolint: disable=R002
    def stamp():
        return time.perf_counter()
    # reprolint: enable=R002


    def stamp2():
        return time.perf_counter()
    """
    kept, suppressed = run_snippet(tmp_path, source)
    assert len(suppressed) == 1 and suppressed[0].line == 5
    assert len(kept) == 1 and kept[0].line == 10


def test_unclosed_region_runs_to_eof(tmp_path):
    source = """\
    import time

    # reprolint: disable=R002
    def stamp():
        return time.perf_counter()


    def stamp2():
        return time.perf_counter()
    """
    kept, suppressed = run_snippet(tmp_path, source)
    assert kept == []
    assert [f.line for f in suppressed] == [5, 9]


def test_disable_next_line(tmp_path):
    source = """\
    import time


    def stamp():
        # reprolint: disable-next-line=R002 -- reporting only
        return time.perf_counter()
    """
    kept, suppressed = run_snippet(tmp_path, source)
    assert kept == []
    assert [f.line for f in suppressed] == [6]


def test_malformed_directive_is_reported(tmp_path):
    source = """\
    # reprolint: disable R002
    X = 1
    """
    kept, suppressed = run_snippet(tmp_path, source)
    assert [f.rule for f in kept] == ["E000"]
    assert "malformed" in kept[0].message


def test_prose_mention_is_not_a_directive():
    directives = scan_directives(
        "# comments that merely mention reprolint-style disables are prose\nX = 1\n"
    )
    assert directives.errors == []
    assert directives.line_disables == {}


def test_syntax_error_file_yields_parse_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    engine = LintEngine(root=tmp_path, respect_scopes=False)
    kept, suppressed = engine.check_file(path)
    assert [f.rule for f in kept] == ["E000"]
    assert "does not parse" in kept[0].message
