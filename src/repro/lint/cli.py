"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: 0 = clean (modulo inline suppressions), 1 = active findings,
2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import LintEngine
from repro.lint.registry import all_rules
from repro.lint.reporters import FORMATS, render


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & contract static analyzer for this repository.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root for relative paths (default: current directory)",
    )
    parser.add_argument(
        "--format", choices=sorted(FORMATS), default="text", dest="fmt",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-scopes", action="store_true",
        help="apply every rule to every file, ignoring per-rule path scopes "
             "(used by the fixture tests)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_ids(raw: Optional[str]) -> List[str]:
    return [part.strip() for part in raw.split(",") if part.strip()] if raw else []


def list_rules() -> str:
    blocks = []
    for rule in all_rules():
        doc = textwrap.dedent(rule.__doc__ or "").strip()
        scope = ", ".join(rule.scope) if rule.scope else "(all files)"
        blocks.append(f"{rule.id} {rule.name}\n  scope: {scope}\n" + textwrap.indent(doc, "  "))
    return "\n\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    root = (args.root or Path.cwd()).resolve()

    try:
        engine = LintEngine(
            root=root,
            select=_split_ids(args.select) or None,
            ignore=_split_ids(args.ignore),
            respect_scopes=not args.no_scopes,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths = [Path(p) if Path(p).is_absolute() else root / p for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            "error: no such file or directory: "
            + ", ".join(str(p) for p in missing),
            file=sys.stderr,
        )
        return 2

    result = engine.run(paths)
    print(render(result, args.fmt))
    return 1 if result.active else 0
