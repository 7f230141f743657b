"""The lint engine: file discovery, parsing, rule dispatch, suppression.

One :class:`LintEngine` run parses each target file once, hands the shared
:class:`~repro.lint.registry.ParsedFile` to every in-scope rule, then folds
suppression comments over the raw findings.  The
result is a :class:`LintResult` whose ``active`` findings are what a CI run
fails on.

Determinism is a design constraint of the analyzer itself (it lints a
determinism-obsessed repo): files are visited in sorted path order, rules in
id order, and findings are reported sorted, so two runs over the same tree
byte-match — the analyzer's own output can be golden-tested.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint.registry import (
    PARSE_ERROR_ID,
    Finding,
    ParsedFile,
    Rule,
    all_rules,
)
from repro.lint.suppressions import scan_directives

__all__ = ["LintEngine", "LintResult", "discover_files"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    out = []
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS or part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return sorted(out)


@dataclass
class LintResult:
    """Everything one engine run produced."""

    #: findings still standing after suppressions
    active: List[Finding] = field(default_factory=list)
    #: findings silenced by inline ``# reprolint: disable`` comments
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.active


class LintEngine:
    """Configured analyzer: rule selection and scoping.

    ``respect_scopes=False`` disables per-rule path scoping — used by the
    fixture tests, which exercise ``src/repro``-scoped rules on files living
    under ``tests/lint/fixtures``.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        rules: Optional[Sequence[Rule]] = None,
        select: Optional[Sequence[str]] = None,
        ignore: Sequence[str] = (),
        respect_scopes: bool = True,
    ):
        self.root = (root or Path.cwd()).resolve()
        chosen = list(rules) if rules is not None else all_rules()
        if select:
            wanted = set(select)
            unknown = wanted - {rule.id for rule in chosen}
            if unknown:
                raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
            chosen = [rule for rule in chosen if rule.id in wanted]
        if ignore:
            dropped = set(ignore)
            chosen = [rule for rule in chosen if rule.id not in dropped]
        self.rules = sorted(chosen, key=lambda rule: rule.id)
        self.respect_scopes = respect_scopes

    # -- single file -----------------------------------------------------------
    def relative_path(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def check_file(self, path: Path) -> Tuple[List[Finding], List[Finding]]:
        """Return (kept, suppressed) raw findings for one file."""
        rel = self.relative_path(path)
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            finding = Finding(
                rule=PARSE_ERROR_ID,
                path=rel,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
            return [finding], []

        directives = scan_directives(text)
        parsed = ParsedFile(path=rel, text=text, tree=tree)

        kept: List[Finding] = []
        suppressed: List[Finding] = []
        for rule in self.rules:
            if self.respect_scopes and not rule.applies_to(rel):
                continue
            for finding in rule.check(parsed):
                if directives.is_disabled(finding.rule, finding.line):
                    suppressed.append(finding)
                else:
                    kept.append(finding)
        for line, comment in directives.errors:
            kept.append(
                Finding(
                    rule=PARSE_ERROR_ID,
                    path=rel,
                    line=line,
                    col=0,
                    message=f"malformed reprolint directive: {comment!r}",
                ).with_code(parsed.lines)
            )
        return kept, suppressed

    # -- whole run -------------------------------------------------------------
    def run(self, paths: Sequence[Path]) -> LintResult:
        result = LintResult()
        for path in discover_files(paths):
            kept, suppressed = self.check_file(path)
            result.active.extend(kept)
            result.suppressed.extend(suppressed)
            result.files_checked += 1
        result.active.sort(key=Finding.sort_key)
        result.suppressed.sort(key=Finding.sort_key)
        return result
