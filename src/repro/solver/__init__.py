"""Mixed-integer linear programming substrate used by the Loki control plane.

The paper solves its resource-allocation problem with Gurobi.  This package
plays that role with HiGHS (through ``scipy.optimize.milp``):

* :mod:`repro.solver.model` -- :class:`StandardForm`, the array form
  (objective, sparse constraint rows, bounds, integrality) the allocation
  MILPs are assembled into, and the :class:`Solution` it solves to.
* :mod:`repro.solver.cache` -- model fingerprinting and the LRU solution
  cache behind :func:`solve`.

:func:`solve` is the one entry point: it consults the solution cache, hands
the form's arrays to HiGHS and decodes the result into a
:class:`~repro.solver.model.Solution`.
"""

from __future__ import annotations

import contextlib
import math
import types
import warnings
from typing import Optional, Union

import numpy as np
from scipy import optimize

from repro.solver.model import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ERROR,
    Solution,
    SolverError,
    StandardForm,
)
from repro.solver.cache import SolutionCache, default_cache, fingerprint_model

__all__ = [
    "INFEASIBLE",
    "OPTIMAL",
    "UNBOUNDED",
    "ERROR",
    "Solution",
    "SolverError",
    "StandardForm",
    "SolutionCache",
    "default_cache",
    "fingerprint_model",
    "DEFAULT_SOLVER_OPTIONS",
    "FEASIBILITY_JUMP_OPTION",
    "solve",
]

#: HiGHS options every control plane solves its MILPs with.  Near-capacity
#: accuracy-scaling MILPs can take several seconds to prove optimality; a
#: small relative gap and a branch-and-bound node budget keep the Resource
#: Manager's runtime close to the paper's ~500 ms.  The budget bounds work,
#: not seconds, so a seeded run's plans do not depend on host load.  The
#: node budget is the smallest of 20, 50, 200 and 1000 that kept every
#: scenario and parity golden.  Over the 16 builtin scenarios at full length
#: (seed 0) its mean SLO attainment was 0.671 against 0.671-0.673 for the
#: larger budgets, with per-scenario differences in both directions, and
#: ``max_supported_demand`` returns the same capacities under all four.  A
#: looser gap is not a cheaper substitute: at 1e-2, ``slo_feedback_flash_crowd``
#: lost most of its attainment.
DEFAULT_SOLVER_OPTIONS = types.MappingProxyType({"mip_rel_gap": 2e-3, "node_limit": 20})


#: largest row violation the snapped point of a MILP may carry before its
#: continuous columns are re-solved around the snapped integers
SNAP_TOLERANCE = 1e-6

#: the HiGHS option ``feasibility_jump=False`` sets: HiGHS runs its
#: feasibility-jump primal heuristic on every MIP unless it is ``False``
FEASIBILITY_JUMP_OPTION = "mip_heuristic_run_feasibility_jump"


def _constraints(form: StandardForm) -> list:
    """``form``'s rows as ``scipy.optimize.LinearConstraint`` objects."""
    constraints = []
    if form.A_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(form.A_ub, np.full(form.A_ub.shape[0], -np.inf), form.b_ub))
    if form.A_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(form.A_eq, form.b_eq, form.b_eq))
    return constraints


@contextlib.contextmanager
def _verbatim_options():
    """Silence SciPy's warning that it passes an option it does not know (:data:`FEASIBILITY_JUMP_OPTION`) to HiGHS verbatim.

    HiGHS's own ``OptimizeWarning`` for an option *it* does not know still
    shows.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options detected", category=RuntimeWarning)
        yield


def _solve_highs(
    form: StandardForm,
    *,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 1e-6,
    presolve: bool = True,
    node_limit: Optional[int] = None,
    feasibility_jump: bool = True,
) -> Solution:
    """Solve ``form`` with HiGHS.

    ``time_limit`` is a wall-clock limit in seconds.  ``node_limit`` is a
    deterministic work limit on branch-and-bound nodes: unlike
    ``time_limit`` it does not depend on machine load, so a solve bounded
    only by it returns the same plan on any machine (HiGHS is deterministic
    for a fixed option set).  ``None`` means unlimited for both.
    ``feasibility_jump=False`` turns off HiGHS's feasibility-jump primal
    heuristic, which costs every MIP that survives presolve a fixed ~12 ms
    (see "Feasibility jump" in :mod:`repro.core.allocation`).
    """
    if form.num_vars == 0:
        return Solution(status=OPTIMAL, objective=0.0, x=np.zeros(0))

    constraints = _constraints(form)
    options = {"mip_rel_gap": mip_rel_gap, "presolve": presolve}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)
    if not feasibility_jump:
        options[FEASIBILITY_JUMP_OPTION] = False

    try:
        with _verbatim_options():
            result = optimize.milp(
                c=form.c,
                constraints=constraints,
                integrality=form.integrality,
                bounds=optimize.Bounds(form.lb, form.ub),
                options=options,
            )
    except Exception as exc:  # pragma: no cover - defensive
        raise SolverError(f"scipy.optimize.milp failed: {exc}") from exc
    info = {
        "status_code": int(getattr(result, "status", -1)),
        "message": getattr(result, "message", ""),
        "mip_gap": getattr(result, "mip_gap", math.nan),
        # status 1 = iteration/time limit: the incumbent (if any) is
        # returned but not proven optimal.
        "optimal_proven": getattr(result, "status", -1) == 0,
    }

    # scipy.optimize.milp status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.
    if result.status == 2:
        return Solution(status=INFEASIBLE, info=info)
    if result.status == 3:
        return Solution(status=UNBOUNDED, info=info)
    if result.x is None:
        return Solution(status=ERROR, info=info)

    x = np.asarray(result.x, dtype=float)
    # Snap integer variables to the nearest integer to remove tiny
    # numerical noise from the relaxation.
    integer = form.integrality != 0
    x[integer] = np.round(x[integer])
    if integer.any() and _row_violation(form, x) > SNAP_TOLERANCE:
        x = _refit_continuous(form, x, integer, options)
    return Solution(status=OPTIMAL, objective=form.sense * float(form.c @ x), x=x, info=info)


def _row_violation(form: StandardForm, x: np.ndarray) -> float:
    """Largest amount by which ``x`` violates a row of ``form`` (0 when it satisfies all)."""
    violation = 0.0
    if form.A_ub.shape[0]:
        violation = max(violation, float(np.max(form.A_ub @ x - form.b_ub)))
    if form.A_eq.shape[0]:
        violation = max(violation, float(np.max(np.abs(form.A_eq @ x - form.b_eq))))
    return violation


def _refit_continuous(form: StandardForm, x: np.ndarray, integer: np.ndarray, options: dict) -> np.ndarray:
    """Re-solve ``form``'s continuous columns with the integer columns fixed at their values in ``x``.

    HiGHS's point satisfies the rows to its own tolerances with integer
    columns a hair off integral; rounding them can then push a row past its
    bound by more than those tolerances.  The LP over the continuous columns
    restores feasibility when a fit exists; otherwise ``x`` is kept.
    """
    lb, ub = form.lb.copy(), form.ub.copy()
    lb[integer] = ub[integer] = x[integer]
    with _verbatim_options():
        result = optimize.milp(
            c=form.c, constraints=_constraints(form), integrality=np.zeros_like(form.integrality),
            bounds=optimize.Bounds(lb, ub), options=options,
        )
    if result.status != 0 or result.x is None:
        return x
    refit = np.asarray(result.x, dtype=float)
    refit[integer] = x[integer]
    return refit


def solve(form: StandardForm, cache: Union[bool, SolutionCache, None] = True, **highs_options) -> Solution:
    """Solve ``form`` with HiGHS.

    Parameters
    ----------
    form:
        A :class:`repro.solver.model.StandardForm`.
    cache:
        ``True`` (default) consults the process-wide solution cache keyed by
        the form's content fingerprint; pass a :class:`SolutionCache` to use
        a private cache, or ``False``/``None`` to bypass caching.  Hits carry
        ``info["cache"] == "hit"``.
    highs_options:
        ``time_limit``, ``mip_rel_gap``, ``presolve``, ``node_limit`` and
        ``feasibility_jump`` (``False`` turns HiGHS's feasibility-jump
        heuristic off); any other keyword raises :class:`TypeError`.

    Returns
    -------
    Solution
    """
    cache_obj: Optional[SolutionCache]
    if cache is True:
        cache_obj = default_cache
    elif isinstance(cache, SolutionCache):
        cache_obj = cache
    else:
        cache_obj = None

    cache_key = None
    fingerprint = None
    if cache_obj is not None:
        fingerprint = fingerprint_model(form)
        cache_key = SolutionCache.key(fingerprint, highs_options)
        cached = cache_obj.get(cache_key)
        if cached is not None:
            return cached

    solution = _solve_highs(form, **highs_options)

    solution.info.setdefault("cache", "miss" if cache_obj is not None else "off")
    if fingerprint is not None:
        solution.info.setdefault("fingerprint", fingerprint[:16])
    if cache_obj is not None and cache_key is not None and solution.status in (OPTIMAL, INFEASIBLE, UNBOUNDED):
        cache_obj.put(cache_key, solution)
    return solution
