"""Array form of the (mixed-integer) linear programs the control plane solves.

The Loki resource manager formulates its hardware- and accuracy-scaling steps
as MILPs of a fixed structure (Section 4.1 of the paper): one integer column
per (variant, batch size) configuration, one flow column per path, capacity,
demand and coupling rows.  :mod:`repro.core.allocation` assembles those rows
directly as arrays into a :class:`StandardForm`, which :func:`repro.solver.solve`
hands to HiGHS unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np
from scipy import sparse

__all__ = [
    "StandardForm",
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


class SolverError(RuntimeError):
    """Raised when the solver cannot process the given model."""


@dataclass(frozen=True)
class StandardForm:
    """``min c @ x`` s.t. ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, ``lb <= x <= ub``.

    ``integrality[j] == 1`` marks an integer column.  ``c`` is always the
    minimisation objective; ``sense`` is ``-1`` when the caller maximises
    ``-c @ x``, so :attr:`Solution.objective` is reported as
    ``sense * (c @ x)``.  Treat the arrays as read-only: they key the
    solution cache.
    """

    c: np.ndarray
    A_ub: sparse.csr_matrix
    b_ub: np.ndarray
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    sense: int = 1

    @property
    def num_vars(self) -> int:
        return len(self.c)


@dataclass
class Solution:
    """Result of solving a :class:`StandardForm`."""

    status: str
    #: objective in the caller's sense (``nan`` when no point was found)
    objective: float = math.nan
    #: column vector in the form's column order (empty when infeasible)
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: solver diagnostics (runtime, status code, MIP gap, cache, ...)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL
