"""Rule API and registry for :mod:`repro.lint`.

A rule is a small object with an id (``R001``...), a path scope (glob
patterns over repo-relative paths) and a :meth:`Rule.check` method that
yields :class:`Finding` objects for one parsed file.  Rules self-register
via :func:`register_rule` at import time; :func:`all_rules` returns them in
id order so reports are deterministic.

New invariants get new rules: subclass :class:`Rule`, give the docstring the
historical bug (or test) the rule pins, decorate with ``@register_rule``,
and import the module from :mod:`repro.lint.rules`.  The engine, CLI and
suppression machinery pick it up with no further wiring.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

__all__ = [
    "Finding",
    "ParsedFile",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
]

#: id of the synthetic finding emitted for files that fail to parse; it is
#: not a registered rule (it cannot be selected away or suppressed — a file
#: the analyzer cannot read is never clean).
PARSE_ERROR_ID = "E000"

_RULE_ID_RE = re.compile(r"^[A-Z]\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a file/line."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    #: stripped source text of the flagged line, as the JSON report shows it
    code: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def with_code(self, lines: List[str]) -> "Finding":
        if self.code or not (1 <= self.line <= len(lines)):
            return self
        return replace(self, code=lines[self.line - 1].strip())


@dataclass
class ParsedFile:
    """One source file, parsed once and shared by every rule."""

    path: str  # repo-relative posix path
    text: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.text.splitlines()

    _parents: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the AST (built lazily, cached)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`name` and :attr:`scope`, and implement
    :meth:`check`.  The class docstring doubles as the rule's documentation
    (``--list-rules`` prints it): state the invariant *and* the historical
    bug or golden test it protects, so a future reader knows why a finding
    must not simply be suppressed away.
    """

    id: str = ""
    name: str = ""
    #: glob patterns over repo-relative posix paths; empty = every file
    scope: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.scope:
            return True
        return any(fnmatch(path, pattern) for pattern in self.scope)

    def check(self, file: ParsedFile) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by concrete rules --------------------------------------
    def finding(self, file: ParsedFile, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id, path=file.path, line=line, col=col, message=message
        ).with_code(file.lines)

    @property
    def summary(self) -> str:
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by id."""
    if not _RULE_ID_RE.match(cls.id or ""):
        raise ValueError(f"rule {cls.__name__} has invalid id {cls.id!r}")
    if cls.id in _REGISTRY and type(_REGISTRY[cls.id]) is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Registered rules in id order (imports the builtin rule modules)."""
    from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

    return _REGISTRY[rule_id]


# -- small AST helpers used by several rule modules -----------------------------

def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def iter_scopes(tree: ast.AST) -> Iterable[Tuple[ast.AST, List[ast.stmt]]]:
    """Yield (scope node, its statement body) for the module and every function."""
    if isinstance(tree, ast.Module):
        yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def scope_walk(body: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/lambda scopes.

    Class bodies *are* descended into (class-level statements execute in the
    enclosing module pass), but ``def``/``async def``/``lambda`` subtrees
    belong to their own scope and are yielded as separate scopes by
    :func:`iter_scopes`.
    """
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
