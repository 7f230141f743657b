"""Reporters: render a :class:`~repro.lint.engine.LintResult` for humans/CI.

* ``text`` — compiler-style ``path:line:col: RULE message`` lines plus a
  summary; what developers read locally.
* ``json`` — the full result as one JSON document; what tooling consumes.
* ``markdown`` — a findings table + per-rule counts; appended to the GitHub
  Actions job summary by the CI lint job.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from repro.lint.engine import LintResult
from repro.lint.registry import Finding

__all__ = ["render", "FORMATS"]


def _text(result: LintResult) -> str:
    lines: List[str] = []
    for finding in result.active:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} {finding.message}"
        )
    lines.append(
        f"{len(result.active)} finding(s) in {result.files_checked} file(s)"
        f" ({len(result.suppressed)} suppressed inline)"
    )
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "code": finding.code,
    }


def _json(result: LintResult) -> str:
    return json.dumps(
        {
            "files_checked": result.files_checked,
            "clean": result.clean,
            "findings": [_finding_dict(f) for f in result.active],
            "suppressed": [_finding_dict(f) for f in result.suppressed],
        },
        indent=2,
    )


def _markdown(result: LintResult) -> str:
    lines = ["### repro.lint"]
    status = "clean ✅" if result.clean else f"**{len(result.active)} finding(s)** ❌"
    lines.append(
        f"- {status} over {result.files_checked} files "
        f"({len(result.suppressed)} suppressed)"
    )
    if result.active:
        lines.append("")
        lines.append("| rule | location | message |")
        lines.append("|---|---|---|")
        for finding in result.active:
            message = finding.message.replace("|", "\\|")
            lines.append(
                f"| {finding.rule} | `{finding.path}:{finding.line}` | {message} |"
            )
    counts = Counter(f.rule for f in result.active)
    if counts:
        lines.append("")
        lines.append(
            "per rule: "
            + ", ".join(f"{rule}×{count}" for rule, count in sorted(counts.items()))
        )
    return "\n".join(lines)


FORMATS = {"text": _text, "json": _json, "markdown": _markdown}


def render(result: LintResult, fmt: str = "text") -> str:
    try:
        return FORMATS[fmt](result)
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMATS)}")
