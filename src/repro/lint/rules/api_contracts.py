"""API-contract rules: frozen snapshot immutability, the one signature per policy hook.

Both rules pin contracts of the feedback-control API: policies read
*immutable* per-period snapshots, and policy hooks have exactly one
signature (``allocate(ctx)``, ``split(workers, demand_qps)``), which the
engine calls without inspecting the override.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.registry import (
    Finding,
    ParsedFile,
    Rule,
    iter_scopes,
    register_rule,
    scope_walk,
)

#: the frozen snapshot types of repro.control.context
FROZEN_TYPES = {"ControlContext", "TelemetryWindow"}
#: parameter names conventionally bound to a ControlContext
_CTX_PARAM_NAMES = {"ctx", "context"}
#: methods (on any receiver) documented to return frozen snapshots
_SNAPSHOT_METHODS = {"build_context"}


def _frozen_names_in_scope(scope: ast.AST, body: List[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            if any(frozen in annotation for frozen in FROZEN_TYPES):
                names.add(arg.arg)
            elif arg.arg in _CTX_PARAM_NAMES:
                names.add(arg.arg)
    for node in scope_walk(body):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (isinstance(func, ast.Name) and func.id in FROZEN_TYPES) or (
                isinstance(func, ast.Attribute) and func.attr in _SNAPSHOT_METHODS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _attribute_root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


@register_rule
class FrozenViewMutationRule(Rule):
    """R005 frozen-view-mutation: control contexts are values, not handles.

    History: PR 5's whole design rests on ``TelemetryWindow`` /
    ``ControlContext`` being immutable snapshots — two policies consulting
    the same context must see identical numbers, and a policy must not be
    able to steer the control loop by editing its context.  The dataclasses
    are ``frozen=True``, so a plain assignment raises — but only
    on the code path that executes, and ``object.__setattr__`` bypasses the
    guard entirely.  This rule flags attribute assignment, ``setattr`` and
    ``object.__setattr__`` on anything inferred to be one of the frozen
    snapshot types, everywhere outside their defining module (whose
    ``__post_init__``-style internals legitimately use the backdoor).
    """

    id = "R005"
    name = "frozen-view-mutation"
    scope = ("src/repro/*", "src/repro/**/*")

    def applies_to(self, path: str) -> bool:
        if path == "src/repro/control/context.py":
            return False
        return super().applies_to(path)

    def check(self, file: ParsedFile) -> Iterator[Finding]:
        for scope, body in iter_scopes(file.tree):
            frozen = _frozen_names_in_scope(scope, body)
            if not frozen:
                continue
            for node in scope_walk(body):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute):
                            root = _attribute_root(target)
                            if isinstance(root, ast.Name) and root.id in frozen:
                                yield self.finding(
                                    file, node,
                                    f"assignment to attribute of frozen snapshot "
                                    f"'{root.id}'; contexts/views are immutable values "
                                    "— build a new snapshot instead",
                                )
                elif isinstance(node, ast.Call):
                    func = node.func
                    is_setattr = isinstance(func, ast.Name) and func.id == "setattr"
                    is_object_setattr = (
                        isinstance(func, ast.Attribute)
                        and func.attr == "__setattr__"
                    )
                    if (is_setattr or is_object_setattr) and node.args:
                        root = _attribute_root(node.args[0])
                        if isinstance(root, ast.Name) and root.id in frozen:
                            yield self.finding(
                                file, node,
                                f"setattr on frozen snapshot '{root.id}' bypasses the "
                                "frozen-dataclass guard the policy API relies on",
                            )


@register_rule
class LegacyPolicySignatureRule(Rule):
    """R006 legacy-policy-signature: policy hooks use their one signature.

    History: the feedback-control API replaced ``allocate(now_s)`` with
    ``allocate(ctx)``; a signature-sniffing deprecation shim bridged old
    overrides until it was removed.  ``split`` briefly took a third ``view``
    argument (a per-period fleet snapshot no policy read), since deleted.
    The engine calls ``AllocationPolicy.allocate(ctx)`` with the period's
    ``ControlContext`` and the traversal calls
    ``TrafficSplitPolicy.split(workers, demand_qps)`` with two arguments,
    whatever the override declares.  An ``allocate(now_s)`` override
    therefore silently receives a ``ControlContext`` as its timestamp, and a
    ``split`` that still requires ``view`` raises ``TypeError`` at the first
    routing refresh.  Flags ``allocate`` overrides in ``AllocationPolicy``
    subclasses whose first argument is not a ControlContext (by name
    ``ctx``/``context`` or annotation), and ``TrafficSplitPolicy.split``
    overrides that the two-argument call cannot bind: a required third
    positional (or keyword-only) parameter, or room for fewer than two
    positional arguments.
    """

    id = "R006"
    name = "legacy-policy-signature"
    scope = ("src/repro/*", "src/repro/**/*")

    def check(self, file: ParsedFile) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            }
            is_alloc = (
                any(name.endswith("AllocationPolicy") for name in base_names)
                and node.name != "AllocationPolicy"
            )
            is_split = any(
                name.endswith("TrafficSplitPolicy") or name.endswith("RoutingPolicy")
                for name in base_names
            )
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if is_alloc and item.name == "allocate" and self._legacy_allocate(item):
                    yield self.finding(
                        file, item,
                        f"{node.name}.allocate uses the old (now_s) signature and "
                        "would silently receive a ControlContext as now_s; accept a "
                        "ControlContext (ctx.now_s carries the timestamp)",
                    )
                if is_split and item.name == "split" and self._legacy_split(item):
                    yield self.finding(
                        file, item,
                        f"{node.name}.split does not bind (workers, demand_qps); the "
                        "traversal calls split(workers, demand_qps), so this override "
                        "raises TypeError at the first routing refresh",
                    )

    @staticmethod
    def _legacy_allocate(func: ast.FunctionDef) -> bool:
        args = func.args
        if args.vararg is not None:
            return False
        positional = [*args.posonlyargs, *args.args][1:]  # drop self
        if not positional:
            return True  # allocate(self) — not even a timestamp; still legacy-shaped
        first = positional[0]
        if first.arg in _CTX_PARAM_NAMES:
            return False
        annotation = ast.unparse(first.annotation) if first.annotation else ""
        return "ControlContext" not in annotation

    @staticmethod
    def _legacy_split(func: ast.FunctionDef) -> bool:
        args = func.args
        positional = [*args.posonlyargs, *args.args][1:]  # drop self
        required = len(positional) - len(args.defaults)
        if required > 2 or any(default is None for default in args.kw_defaults):
            return True
        return args.vararg is None and len(positional) < 2
