"""R002 fixture: wall-clock solver budgets outside the solver package."""

from repro.solver import solve

OPTIONS = {"mip_rel_gap": 2e-3, "time_limit": 3.0}


def plan(form):
    return solve(form, time_limit=30.0)
