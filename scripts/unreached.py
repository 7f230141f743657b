#!/usr/bin/env python
"""List the functions of ``src/repro`` that no cProfile record ever entered.

A second implementation that only tests call shows up here: profile the runs
that matter, then list what none of them reached::

    PYTHONPATH=src python -m cProfile -o id.pstats scripts/dataplane_identity.py --write id.json
    PYTHONPATH=src python scripts/run_sweep.py --scenarios smoke --seeds 0 --profile-out sweep.pstats
    python scripts/unreached.py id.pstats sweep.pstats

Every ``def`` under the source root (``--root``, default ``src/repro``; the
``lint`` subpackage is excluded) is found by walking each module's AST, and
counts as reached when any of the stats files records it.  A stats entry is
keyed ``(file, co_firstlineno, co_name)``; the file is matched on its path
below the last directory named like the root, so a profile written in
another checkout still matches.  A decorated function's ``co_firstlineno`` is
its first decorator's line, so that is the line the AST side uses too.

Each unreached function prints as ``file:line  qualified.name  (N lines)``,
in file order, followed by the total.  The list is only as good as the
profiles: a path the profiled runs never take is listed even when it is
live elsewhere (an error branch, a protocol stub, a test-only reference).
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import pstats
import sys
from typing import Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
#: subpackages of the root that are not audited
EXCLUDED = ("lint",)

#: ``(path below the root, first line, co_name)``
Key = Tuple[str, int, str]


class Function:
    __slots__ = ("path", "line", "name", "qualname", "num_lines")

    def __init__(self, path: str, node: ast.AST, qualname: str):
        self.path = path
        self.line = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.name = node.name
        self.qualname = qualname
        self.num_lines = node.end_lineno - self.line + 1

    @property
    def key(self) -> Key:
        return (self.path, self.line, self.name)


def _functions(tree: ast.AST, path: str, prefix: str = "") -> Iterator[Function]:
    """Every function of ``tree``, methods and nested functions included, with
    its ``__qualname__``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            yield Function(path, node, qualname)
            yield from _functions(node, path, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, path, prefix + node.name + ".")
        else:
            yield from _functions(node, path, prefix)


def source_functions(root: pathlib.Path) -> List[Function]:
    found: List[Function] = []
    for file in sorted(root.rglob("*.py")):
        relative = file.relative_to(root)
        if relative.parts[0] in EXCLUDED:
            continue
        tree = ast.parse(file.read_text(), filename=str(file))
        found.extend(_functions(tree, relative.as_posix()))
    return found


def recorded_keys(stats_files: List[str], root_name: str) -> Set[Key]:
    """The ``(path below the root, line, name)`` of every function the stats record."""
    keys: Set[Key] = set()
    for (filename, line, name) in pstats.Stats(*stats_files).stats:
        parts = pathlib.PurePath(filename).parts
        if root_name not in parts:
            continue
        below = len(parts) - parts[::-1].index(root_name)
        keys.add(("/".join(parts[below:]), line, name))
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pstats", nargs="+", help="cProfile stats files (python -m cProfile -o, run_sweep.py --profile-out)")
    parser.add_argument("--root", type=pathlib.Path, default=ROOT, help="source package to audit (default: src/repro)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    reached = recorded_keys(args.pstats, root.name)
    unreached = [f for f in source_functions(root) if f.key not in reached]
    for f in unreached:
        print(f"{f.path}:{f.line}  {f.qualname}  ({f.num_lines} lines)")
    print(f"{len(unreached)} functions ({sum(f.num_lines for f in unreached)} lines) that no profile records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
