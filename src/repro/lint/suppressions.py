"""Suppression comments for :mod:`repro.lint`.

Grammar (inside any comment)::

    # reprolint: disable=R001[,R002|all]     trailing -> that line only;
    #                                        standalone -> region until the
    #                                        matching enable (or EOF)
    # reprolint: enable=R001[,all]           close a standalone region
    # reprolint: disable-next-line=R001      the following physical line

A *standalone* comment is one with nothing but whitespace before the ``#``;
a *trailing* comment shares its line with code.  Every suppression should
carry a human justification in the same comment, e.g.::

    start = time.perf_counter()  # reprolint: disable=R002 -- reporting only

Suppressions are per-rule on purpose: ``disable=all`` exists for generated
code, but a blanket disable on hand-written lines hides exactly the class of
bug (hash-order plans, forked RNG streams) this tool was built to catch.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

__all__ = ["Directives", "scan_directives"]

# Anchored to the start of the comment: a comment must *begin* with
# ``# reprolint:`` to be a directive, so prose that merely mentions the
# grammar (docs, the analyzer's own sources) is never parsed as one.
_DIRECTIVE_RE = re.compile(
    r"^#\s*reprolint:\s*(?P<directive>[a-z][a-z-]*)"
    r"(?:\s*=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*))?"
)

ALL = "all"


@dataclass
class Directives:
    """Per-file suppression state computed from comments."""

    #: line -> rule ids (or ``all``) disabled on exactly that line
    line_disables: Dict[int, Set[str]] = field(default_factory=dict)
    #: (rule id or ``all``, first line, last line) inclusive regions
    regions: List[Tuple[str, int, int]] = field(default_factory=list)
    #: malformed directives: (line, comment text)
    errors: List[Tuple[int, str]] = field(default_factory=list)

    def is_disabled(self, rule_id: str, line: int) -> bool:
        on_line = self.line_disables.get(line)
        if on_line and (rule_id in on_line or ALL in on_line):
            return True
        return any(
            (rule == rule_id or rule == ALL) and start <= line <= end
            for rule, start, end in self.regions
        )


def scan_directives(text: str) -> Directives:
    """Tokenize ``text`` and collect reprolint comment directives.

    Tokenizing (rather than regexing raw lines) means a ``# reprolint:``
    inside a string literal is never treated as a directive.
    """
    directives = Directives()
    open_regions: Dict[str, int] = {}  # rule -> region start line
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return directives  # parse errors are reported separately by the engine

    last_line = text.count("\n") + 1
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.match(token.string)
        if match is None:
            if re.match(r"^#\s*reprolint\b", token.string):
                directives.errors.append((token.start[0], token.string.strip()))
            continue
        line = token.start[0]
        standalone = token.line[: token.start[1]].strip() == ""
        directive = match.group("directive")
        rules = [r.strip() for r in (match.group("rules") or "").split(",") if r.strip()]

        if directive == "disable-next-line" and rules:
            directives.line_disables.setdefault(line + 1, set()).update(rules)
        elif directive == "disable" and rules:
            if standalone:
                for rule in rules:
                    open_regions.setdefault(rule, line)
            else:
                directives.line_disables.setdefault(line, set()).update(rules)
        elif directive == "enable" and rules:
            for rule in rules:
                targets = list(open_regions) if rule == ALL else [rule]
                for target in targets:
                    start = open_regions.pop(target, None)
                    if start is not None:
                        directives.regions.append((target, start, line))
        else:
            directives.errors.append((line, token.string.strip()))

    for rule, start in open_regions.items():  # unclosed regions run to EOF
        directives.regions.append((rule, start, last_line))
    return directives
