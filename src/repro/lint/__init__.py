"""repro.lint — determinism & contract static analysis for this repository.

The repo's headline guarantees — bit-identical ``(scenario, seed)`` replays,
hash-order-independent plans, machine-independent solver budgets, immutable
control contexts — were historically enforced only by after-the-fact golden
tests.  This package enforces them *at the source level* with an AST analyzer
and five repo-specific rules:

========  =======================  ====================================================
 id        name                     invariant (see each rule's docstring for history)
========  =======================  ====================================================
 R001      unkeyed-rng              every RNG stream derives from the run seed
 R002      wall-clock               simulated code never reads the host clock
 R003      hash-order               no set-order leakage into plan/constraint emission
 R005      frozen-view-mutation     control contexts are immutable values
 R006      legacy-policy-signature  policy hooks use their one signature
========  =======================  ====================================================

R004 and R007 were retired with the execution paths they guarded.

Usage::

    python -m repro.lint src tests            # analyze, exit 1 on findings
    python -m repro.lint --list-rules         # rule catalog with history
    python -m repro.lint --format json src    # machine-readable report

A deliberate violation is accepted only by an inline suppression with a
justification (``# reprolint: disable=R002 -- why``); see
:mod:`repro.lint.suppressions`.
"""

from repro.lint.engine import LintEngine, LintResult, discover_files
from repro.lint.registry import Finding, ParsedFile, Rule, all_rules, get_rule
from repro.lint.reporters import render

__all__ = [
    "Finding",
    "LintEngine",
    "LintResult",
    "ParsedFile",
    "Rule",
    "all_rules",
    "discover_files",
    "get_rule",
    "render",
]
