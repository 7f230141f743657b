"""Determinism rules: seed-keyed RNGs and wall-clock bans.

These rules guard the repo's strongest promise: the same
``(scenario, seed)`` produces byte-identical results on any machine, any
process, any year.  Every one of them pins a bug class that has either
already shipped here or shipped in the systems this repo reproduces.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.registry import (
    Finding,
    ParsedFile,
    Rule,
    dotted_name,
    register_rule,
)

#: ``numpy.random`` module-state draw functions (legacy global-RNG API)
NP_MODULE_STATE_FNS = {
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "uniform", "normal", "standard_normal", "choice", "shuffle",
    "permutation", "poisson", "exponential", "binomial", "beta", "gamma",
    "lognormal", "pareto", "weibull", "zipf", "bytes", "random_integers",
}

#: substrings that mark a ``default_rng`` argument as derived from the run
#: seed (``config.seed``, ``spec.seed``, ``_RNG_SALT`` side-channel keys, ...)
_SEED_TOKENS = ("seed", "salt", "key", "entropy")


def _is_seed_derived(args: List[ast.expr]) -> bool:
    """True when any argument references a seed/salt-named variable."""
    for arg in args:
        for node in ast.walk(arg):
            name = ""
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.arg):
                name = node.arg
            if name and any(token in name.lower() for token in _SEED_TOKENS):
                return True
    return False


def _module_aliases(tree: ast.AST, module: str) -> Tuple[Set[str], Dict[str, str]]:
    """(names the module is bound to, direct-from imports ``local -> orig``)."""
    aliases: Set[str] = set()
    members: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                members[alias.asname or alias.name] = alias.name
    return aliases, members


@register_rule
class UnkeyedRngRule(Rule):
    """R001 unkeyed-rng: every RNG must be derived from the run seed.

    History: fig5/fig6 parity and the serial==parallel sweep guarantee hold
    because every stream is ``default_rng(seed)`` or a keyed side channel
    (``(seed, 0x5E51)`` for resilience, ``(seed, 0xC4A05, fault, proc)`` for
    chaos).  One ``default_rng()`` seeded from OS entropy — or any
    ``random.*`` / ``np.random.*`` module-state call, whose hidden global is
    shared across tenants and mutated by import order — makes results
    irreproducible in a way no golden test can pin (each run simply differs).
    Flags: ``np.random.default_rng()`` with no seed-derived argument, bare
    ``random`` module calls, and legacy ``np.random`` module-state draws.
    """

    id = "R001"
    name = "unkeyed-rng"
    scope = ("src/repro/*", "src/repro/**/*")

    def check(self, file: ParsedFile) -> Iterator[Finding]:
        random_aliases, random_members = _module_aliases(file.tree, "random")
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = dotted_name(func)
            tail = dotted.split(".")

            # np.random.default_rng(...) — any attribute path ending so
            if len(tail) >= 2 and tail[-2:] == ["random", "default_rng"] or dotted == "default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        file, node,
                        "default_rng() without a seed draws OS entropy; pass the run "
                        "seed (or a (seed, salt) key for side-channel streams)",
                    )
                elif not _is_seed_derived(node.args + [kw.value for kw in node.keywords]):
                    yield self.finding(
                        file, node,
                        "default_rng(...) argument is not derived from a seed/salt "
                        "variable; constant or unrelated seeds break per-seed sweeps",
                    )
                continue

            # stdlib random module state: random.random(), random.choice(), ...
            # (checked before the numpy branch: a bare ``random.random()``
            # chain also ends in ("random", <draw>) but is the stdlib module)
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in random_aliases
            ):
                yield self.finding(
                    file, node,
                    f"random.{func.attr} uses the interpreter-global RNG; use a "
                    "seed-keyed np.random.Generator",
                )
                continue

            # legacy numpy module-state API: np.random.<draw>(...)
            if (
                len(tail) >= 2
                and tail[-2] == "random"
                and tail[-1] in NP_MODULE_STATE_FNS
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, (ast.Attribute, ast.Name))
            ):
                yield self.finding(
                    file, node,
                    f"np.random.{tail[-1]} mutates numpy's hidden global RNG; use a "
                    "Generator derived from the run seed",
                )
                continue

            # from random import choice — direct member imports
            if isinstance(func, ast.Name) and func.id in random_members:
                yield self.finding(
                    file, node,
                    f"{func.id} (from random) uses the interpreter-global RNG; use "
                    "a seed-keyed np.random.Generator",
                )


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register_rule
class WallClockRule(Rule):
    """R002 wall-clock: simulated code must not read the host's clock.

    History: a B&B that stops "after 2s" returns different plans on a laptop
    vs CI, which fig5's full-batch-grid test caught as cross-machine plan
    drift; later a 3 s ``time_limit`` in ``DEFAULT_SOLVER_OPTIONS`` made
    seeded scenario runs differ under concurrent load.  Solver budgets are
    now HiGHS's deterministic work limit (``node_limit``) only, so a
    non-``None`` ``time_limit`` -- a dict entry or a keyword argument --
    is flagged anywhere outside ``repro/solver/``, which defines the option.
    Any ``time.time`` / ``perf_counter`` / ``datetime.now`` inside
    ``src/repro`` risks adding another host-clock dependence: the
    simulation's only clock is ``engine.now_s``.
    Measurement-only uses (reporting ``runtime_s``, never branching on it)
    are grandfathered in the baseline or suppressed inline with a
    justification; ``experiments/runtime_overhead.py`` is allow-listed
    wholesale because measuring wall overhead is its entire purpose.
    """

    id = "R002"
    name = "wall-clock"
    scope = ("src/repro/*", "src/repro/**/*")
    #: timing shims whose whole purpose is wall-clock measurement
    allow_listed = ("src/repro/experiments/runtime_overhead.py",)
    #: the package that defines the ``time_limit`` solver option
    solver_package = "src/repro/solver/"

    _TIME_FNS = {
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
    }
    _DATETIME_FNS = {"now", "utcnow", "today"}

    def applies_to(self, path: str) -> bool:
        if path in self.allow_listed:
            return False
        return super().applies_to(path)

    def _time_limits(self, file: ParsedFile) -> Iterator[Finding]:
        """Non-``None`` ``time_limit`` dict entries and keyword arguments."""
        message = (
            "time_limit makes the solver's plan depend on host speed; bound the "
            "MILP by work (node_limit), as DEFAULT_SOLVER_OPTIONS does"
        )
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and key.value == "time_limit" and not _is_none(value):
                        yield self.finding(file, key, message)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "time_limit" and not _is_none(keyword.value):
                        yield self.finding(file, keyword, message)

    def check(self, file: ParsedFile) -> Iterator[Finding]:
        if not file.path.startswith(self.solver_package):
            yield from self._time_limits(file)
        time_aliases, time_members = _module_aliases(file.tree, "time")
        dt_aliases, dt_members = _module_aliases(file.tree, "datetime")
        datetime_classes = {
            local for local, orig in dt_members.items() if orig in ("datetime", "date")
        }
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base, attr = func.value.id, func.attr
                if base in time_aliases and attr in self._TIME_FNS:
                    yield self.finding(
                        file, node,
                        f"{base}.{attr}() reads the host clock; simulated time is "
                        "engine.now_s and solver budgets are work limits, not seconds",
                    )
                elif base in (dt_aliases | datetime_classes) and attr in self._DATETIME_FNS:
                    yield self.finding(
                        file, node,
                        f"{base}.{attr}() reads the host clock; derive timestamps "
                        "from simulated time",
                    )
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                # datetime.datetime.now()
                chain = dotted_name(func)
                parts = chain.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in dt_aliases
                    and parts[1] in ("datetime", "date")
                    and parts[2] in self._DATETIME_FNS
                ):
                    yield self.finding(
                        file, node,
                        f"{chain}() reads the host clock; derive timestamps from "
                        "simulated time",
                    )
            elif isinstance(func, ast.Name) and func.id in time_members:
                orig = time_members[func.id]
                if orig in self._TIME_FNS:
                    yield self.finding(
                        file, node,
                        f"{func.id}() (time.{orig}) reads the host clock; simulated "
                        "time is engine.now_s",
                    )
