"""Modelling layer for (mixed-integer) linear programs.

The Loki resource manager formulates its hardware- and accuracy-scaling steps
as MILPs (Section 4.1 of the paper).  This module provides the small algebraic
modelling layer those formulations are written against.  It intentionally
mirrors the look-and-feel of commercial modelling APIs (``model.add_var``,
``expr <= rhs``, ``model.maximize``) so the allocation code in
:mod:`repro.core.allocation` reads close to the paper's notation, while the
actual solve is delegated to HiGHS by :func:`repro.solver.solve`.

The layer is deliberately dense-matrix friendly: Loki's MILPs have at most a
few thousand variables (configurations x batch sizes x paths), so we favour
clarity and NumPy-vectorised constraint assembly over sparse cleverness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Sense",
    "Variable",
    "LinExpr",
    "Constraint",
    "Model",
    "Solution",
    "SolverError",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ERROR",
]

#: Solution status constants.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ERROR = "error"

Number = Union[int, float]

#: anything the algebra can combine with a variable or expression
ExprLike = Union["LinExpr", "Variable", int, float]

#: dense assignment vectors accepted by evaluation helpers
VectorLike = Union[Sequence[float], np.ndarray]

#: ``(c, A_ub, b_ub, A_eq, b_eq, integrality)`` minimisation matrices
StandardForm = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class SolverError(RuntimeError):
    """Raised when the solver cannot process the given model."""


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Attributes
    ----------
    index:
        Position of the variable in the model's column ordering.
    name:
        Human-readable name, used in solutions and debugging output.
    lb, ub:
        Lower / upper bounds.  ``ub`` may be ``math.inf``.
    integer:
        Whether the variable is required to take integer values.
    """

    index: int
    name: str
    lb: float = 0.0
    ub: float = math.inf
    integer: bool = False

    # -- algebra ---------------------------------------------------------
    def to_expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-1.0) * self.to_expr() + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    def __rmul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    def __le__(self, other: ExprLike) -> "Constraint":
        return self.to_expr() <= other

    def __ge__(self, other: ExprLike) -> "Constraint":
        return self.to_expr() >= other

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, Variable):
            return self.index == other.index
        return self.to_expr() == other  # type: ignore[arg-type]

    def __hash__(self) -> int:
        return hash(("Variable", self.index))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name!r}, [{self.lb}, {self.ub}], {kind})"


class LinExpr:
    """A linear expression ``sum_j coeffs[j] * x_j + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Optional[Mapping[int, float]] = None, constant: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------
    @staticmethod
    def from_terms(terms: Iterable[Tuple[Variable, Number]], constant: float = 0.0) -> "LinExpr":
        """Build an expression from ``(variable, coefficient)`` pairs."""
        expr = LinExpr(constant=constant)
        for var, coeff in terms:
            expr.add_term(var, coeff)
        return expr

    def add_term(self, var: Variable, coeff: Number) -> "LinExpr":
        """Add ``coeff * var`` in place and return ``self``."""
        if coeff:
            self.coeffs[var.index] = self.coeffs.get(var.index, 0.0) + float(coeff)
        return self

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.constant)

    # -- algebra ---------------------------------------------------------
    def _coerce(self, other: ExprLike) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.to_expr()
        if isinstance(other, (int, float, np.integer, np.floating)):
            return LinExpr(constant=float(other))
        raise TypeError(f"cannot combine LinExpr with {type(other)!r}")

    def __add__(self, other: ExprLike) -> "LinExpr":
        other = self._coerce(other)
        result = self.copy()
        for idx, coeff in other.coeffs.items():
            result.coeffs[idx] = result.coeffs.get(idx, 0.0) + coeff
        result.constant += other.constant
        return result

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, coeff: Number) -> "LinExpr":
        if not isinstance(coeff, (int, float, np.integer, np.floating)):
            raise TypeError("LinExpr may only be scaled by a scalar")
        return LinExpr({k: v * float(coeff) for k, v in self.coeffs.items()}, self.constant * float(coeff))

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- relational operators produce constraints ------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        rhs = self._coerce(other)
        return Constraint(self - rhs, Sense.LE, 0.0)

    def __ge__(self, other: ExprLike) -> "Constraint":
        rhs = self._coerce(other)
        return Constraint(self - rhs, Sense.GE, 0.0)

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        rhs = self._coerce(other)  # type: ignore[arg-type]
        return Constraint(self - rhs, Sense.EQ, 0.0)

    def __hash__(self) -> int:  # pragma: no cover - LinExpr is not meant to be hashed
        raise TypeError("LinExpr objects are unhashable")

    # -- evaluation -------------------------------------------------------
    def value(self, assignment: VectorLike) -> float:
        """Evaluate the expression at the given variable assignment."""
        total = self.constant
        for idx, coeff in self.coeffs.items():
            total += coeff * assignment[idx]
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms} + {self.constant:g})"


@dataclass
class Constraint:
    """A linear constraint ``expr (sense) rhs``.

    The expression's constant is folded into the right-hand side when the
    constraint is normalised by :meth:`Model.add_constraint`.
    """

    expr: LinExpr
    sense: Sense
    rhs: float
    name: str = ""

    def normalised(self) -> Tuple[Dict[int, float], Sense, float]:
        """Return ``(coeffs, sense, rhs)`` with the constant moved to the rhs."""
        coeffs = dict(self.expr.coeffs)
        rhs = self.rhs - self.expr.constant
        return coeffs, self.sense, rhs

    def violation(self, assignment: VectorLike, tol: float = 1e-7) -> float:
        """Amount by which the constraint is violated at ``assignment`` (0 if satisfied)."""
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs - tol)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs - tol)
        return max(0.0, abs(lhs - self.rhs) - tol)


@dataclass
class Solution:
    """Result of solving a :class:`Model`."""

    status: str
    objective: float = math.nan
    values: Dict[str, float] = field(default_factory=dict)
    #: raw column vector in model variable order (empty when infeasible)
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: solver diagnostics (runtime, status code, MIP gap, cache, ...)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def is_feasible(self) -> bool:
        return self.status == OPTIMAL

    def __getitem__(self, key: Union[str, Variable]) -> float:
        if isinstance(key, Variable):
            key = key.name
        return self.values[key]

    def get(self, key: Union[str, Variable], default: float = 0.0) -> float:
        if isinstance(key, Variable):
            key = key.name
        return self.values.get(key, default)


class Model:
    """A mixed-integer linear program.

    Usage::

        m = Model("allocation")
        x = m.add_var("x", lb=0, integer=True)
        y = m.add_var("y", lb=0, integer=True)
        m.add_constraint(2 * x + y <= 10, name="capacity")
        m.maximize(3 * x + 2 * y)
        sol = solve(m)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        #: +1 for minimisation, -1 for maximisation
        self.objective_sign: int = 1
        self._names: Dict[str, Variable] = {}
        #: bumped on every structural change; invalidates the matrix caches
        self._revision: int = 0
        self._standard_form_cache: Optional[Tuple[int, StandardForm]] = None
        self._bounds_cache: Optional[Tuple[int, Tuple[np.ndarray, np.ndarray]]] = None

    # -- building ---------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> Variable:
        """Add a decision variable and return it."""
        if name in self._names:
            raise ValueError(f"duplicate variable name: {name!r}")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub ({lb} > {ub})")
        var = Variable(index=len(self.variables), name=name, lb=float(lb), ub=float(ub), integer=integer)
        self.variables.append(var)
        self._names[name] = var
        self._revision += 1
        return var

    def add_vars(self, names: Iterable[str], **kwargs: Any) -> List[Variable]:
        return [self.add_var(name, **kwargs) for name in names]

    def get_var(self, name: str) -> Variable:
        return self._names[name]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError("add_constraint expects a Constraint (use <=, >= or == on expressions)")
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        self._revision += 1
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint], prefix: str = "c") -> List[Constraint]:
        added: List[Constraint] = []
        for i, con in enumerate(constraints):
            added.append(self.add_constraint(con, name=f"{prefix}{len(self.constraints)}"))
        return added

    def minimize(self, expr: Union[LinExpr, Variable]) -> None:
        self.objective = expr.to_expr() if isinstance(expr, Variable) else expr.copy()
        self.objective_sign = 1
        self._revision += 1

    def maximize(self, expr: Union[LinExpr, Variable]) -> None:
        self.objective = expr.to_expr() if isinstance(expr, Variable) else expr.copy()
        self.objective_sign = -1
        self._revision += 1

    # -- matrix form -------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def integer_indices(self) -> List[int]:
        return [v.index for v in self.variables if v.integer]

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower/upper bound vectors.  Treat the returned arrays as read-only:
        they are cached until the model changes structurally."""
        if self._bounds_cache is not None and self._bounds_cache[0] == self._revision:
            return self._bounds_cache[1]
        lbs = np.array([v.lb for v in self.variables], dtype=float)
        ubs = np.array([v.ub for v in self.variables], dtype=float)
        self._bounds_cache = (self._revision, (lbs, ubs))
        return lbs, ubs

    def to_standard_form(self) -> StandardForm:
        """Return ``(c, A_ub, b_ub, A_eq, b_eq, integrality)`` for *minimisation*.

        The objective vector ``c`` is already adjusted for maximisation
        problems (the sign flip is applied), so the solver minimises
        ``c @ x`` and reports ``objective_sign * (c @ x)``... i.e. callers
        should use :meth:`recover_objective`.

        Treat the returned arrays as read-only: the matrix form is cached
        until the model changes structurally (it is requested several times
        per solve -- fingerprinting and the HiGHS call).
        """
        if self._standard_form_cache is not None and self._standard_form_cache[0] == self._revision:
            return self._standard_form_cache[1]
        n = self.num_vars
        c = np.zeros(n)
        for idx, coeff in self.objective.coeffs.items():
            c[idx] = coeff
        c = c * self.objective_sign

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for con in self.constraints:
            coeffs, sense, rhs = con.normalised()
            row = np.zeros(n)
            for idx, coeff in coeffs.items():
                row[idx] = coeff
            if sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        A_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        A_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
        integrality = np.array([1 if v.integer else 0 for v in self.variables])
        result = (c, A_ub, b_ub, A_eq, b_eq, integrality)
        self._standard_form_cache = (self._revision, result)
        return result

    def recover_objective(self, x: np.ndarray) -> float:
        """Evaluate the *original* (sign-corrected) objective at ``x``."""
        return self.objective.value(x) if len(x) else math.nan

    # -- checking ----------------------------------------------------------
    def is_feasible_point(self, x: VectorLike, tol: float = 1e-6) -> bool:
        """Check bounds, integrality and constraints at ``x``."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.num_vars,):
            return False
        for var in self.variables:
            if arr[var.index] < var.lb - tol or arr[var.index] > var.ub + tol:
                return False
            if var.integer and abs(arr[var.index] - round(arr[var.index])) > tol:
                return False
        return all(con.violation(arr, tol) == 0.0 for con in self.constraints)

    def make_solution(self, x: np.ndarray, status: str = OPTIMAL, **info: Any) -> Solution:
        """Package a raw assignment into a :class:`Solution`."""
        x = np.asarray(x, dtype=float)
        values = {var.name: float(x[var.index]) for var in self.variables}
        return Solution(status=status, objective=self.recover_objective(x), values=values, x=x, info=dict(info))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constraints={self.num_constraints}, "
            f"{'min' if self.objective_sign > 0 else 'max'})"
        )
