"""R002 fixture: solver budgets bounded by work, never by seconds."""

from repro.solver import solve

OPTIONS = {"mip_rel_gap": 2e-3, "node_limit": 200, "time_limit": None}


def plan(form):
    return solve(form, node_limit=200, time_limit=None)
