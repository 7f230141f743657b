"""MILP formulations for hardware and accuracy scaling (Section 4 of the paper).

Notation (Table 1 of the paper)
-------------------------------

===========  ====================================================================
``T``        set of tasks; ``t_i`` the i-th task
``V_i``      set of model variants of task ``t_i``; ``v_{i,k}`` the k-th variant
``E``        edges of the pipeline graph
``P``        root-to-sink paths of the augmented graph
``B``        allowed batch sizes
``D``        incoming demand (QPS) at the root
``S``        number of workers in the cluster
``L``        end-to-end latency SLO
``r(i,k)``   multiplicative factor of variant ``v_{i,k}``
``q(i,k,b)`` profiled throughput of ``v_{i,k}`` at batch size ``b``
``A(v)``     profiled accuracy of a variant; ``Â(p)`` end-to-end accuracy of path p
``x(i,k)``   number of instances of ``v_{i,k}`` (optimisation variable)
``y(i,k)``   batch size of ``v_{i,k}`` (optimisation variable)
``c(p)``     ratio of queries routed through path ``p``
===========  ====================================================================

Linearisation
-------------

As written in the paper, constraint (2) multiplies ``x(i,k)`` with
``q(i,k,y(i,k))`` and the path latency (6) depends on the chosen batch sizes,
both of which are nonlinear.  We linearise exactly by expanding every
``(variant, batch size)`` pair into a *configuration*: a configuration has
constant throughput and constant processing latency, so

* ``x(i,k,b)`` -- integer count of instances of variant ``k`` of task ``i``
  configured with maximum batch size ``b`` -- makes (2) linear, and
* augmented paths are enumerated at the configuration level, so every path has
  a fixed end-to-end latency and constraint (7) becomes a pre-solve pruning
  step (paths whose latency exceeds the effective budget are simply removed).

Instead of the ratio variables ``c(p)`` we use absolute flows
``g(p) = D * c(p)`` internally, which keeps the formulation linear also when
the demand itself is an optimisation variable (used by
:meth:`AllocationProblem.max_supported_demand` to compute cluster capacity for
Figure 1).

Shared-prefix consistency
-------------------------

When a pipeline fans out (the traffic-analysis pipeline's detection task feeds
two branches), the same physical query traverses the shared prefix once.  The
formulation therefore (a) counts the load of a shared task from a single
designated branch and (b) adds *coupling constraints* forcing the per
configuration flow through a shared task to be identical across branches, so
the designated-branch accounting is exact and the variant mix at the shared
task is consistent.

Array form
----------

The MILP's structure is fixed, so it is assembled directly as a
:class:`~repro.solver.StandardForm`: integer ``x`` columns in configuration
order, flow ``g`` columns in path order, then ``D`` when the demand is a
variable.  Capacity rows come from a path x configuration incidence that
carries each hop's multiplier on the configuration's designated branch,
coupling rows are differences of incidence columns between branches, and the
accuracy objective is the vector of path accuracies.

Between calls only the factor estimates and the demand move, so an
:class:`AllocationProblem` keeps the rest per path set: the configurations,
the pruned paths with each hop's upstream variant and branch ratio, the
incidence and the constant rows.  A build multiplies the hop multipliers out
in path order and fills in the capacity rows' multipliers, the right-hand
sides and the objective.  Each control plane keeps one problem and assigns
its ``multiplicative_factors`` before every solve.

Path reduction
--------------

The accuracy-scaling model (:meth:`AllocationProblem.solve_accuracy_scaling`)
keeps only the *maximal* paths of each variant sequence.  A path is dominated
when another latency-feasible path of the same branch and variant sequence
has a batch at least as large at every hop and a larger one at some hop.
Multipliers and path accuracy depend on the variant sequence alone, so the
dominating path routes the same queries at the same accuracy with at least as
much throughput per worker.  This takes the traffic-analysis model from 1,863
paths to 218 and the social-media model from 519 to 69.  The ``x`` columns
stay :meth:`AllocationProblem.configurations` in full, and the kept paths are
a subsequence of the full enumeration, in its order.

Dominance is checked one hop at a time, at each leaf of the enumeration: a
feasible path is dominated iff raising a single hop to a larger allowed batch
of the same variant keeps it within the branch's latency budget.  Latency is a
sum over hops and the path has non-negative slack, so if every single-hop
raise towards a dominating path overran the slack, their sum would too; the
check is exact for any latency profile.

The reduction is not exact for the MILP: a configuration shared by several
paths packs integer replicas differently when some of those paths are gone.
Solved to a 1e-6 gap on a grid of 1.1x-3.0x the hardware-scaling capacity
(20 workers, utilisation target 0.75), the reduced objective is at most 0.14%
below the full one (traffic, 2.7x) and equal at most points; the social
pipeline loses at most 0.015%.  That is below the default 0.2% ``mip_rel_gap``
(``tests/core/test_path_reduction.py`` bounds it at 0.15%).  Hardware
scaling, :meth:`AllocationProblem.max_supported_demand` and
:meth:`AllocationProblem.best_effort_plan` keep the full path set: there the
same packing loss would shift the capacity figures (the social pipeline's
capacity gain would fall from 9.213x to 9.170x).
:func:`repro.core.validate_plan` checks a plan against the full model.

Support incumbent
-----------------

Most accuracy-scaling MILPs end at HiGHS's root node, and most of their time
goes to its root heuristics searching for an incumbent, while the LP
relaxation alone is within a fraction of a percent of the optimum.  So
:meth:`AllocationProblem.solve_accuracy_scaling` solves MILPs restricted to a
few columns, and the full MILP only as a fallback, all through
:func:`repro.solver.solve` under the problem's ``solver_options``:

1. two LP relaxations (``integrality`` zeroed): the plain one, and the same
   LP with the cluster-size row (3) tightened to ``S - 1`` workers
   (:data:`ROUNDING_SLACK_WORKERS`), which leaves the slack that rounding
   fractional worker counts up needs.  If the plain LP is infeasible, so is
   the MILP, and nothing more is solved;
2. the *support MILP*: the form with ``ub = 0`` on every column outside the
   union of the two LPs' supports.  An LP's support is every column with a
   positive LP value plus the ``x`` column of every configuration on a path
   with positive LP flow.  Its solution is feasible for the full form; it is
   returned when it lies within ``mip_rel_gap`` of the plain LP's bound,
   relative to its own objective as HiGHS measures the gap;
3. otherwise the *recent MILP*, when the caller passes ``recent_configs``
   (the Resource Manager passes the ``(task, variant, batch)`` keys of its
   last :data:`~repro.core.resource_manager.RECENT_PLANS` solved plans) and
   they add an ``x`` column: it keeps the support, those ``x`` columns and
   every path whose configurations all lie in that widened ``x`` set;
4. the full form, exactly as without steps 1-3, only when neither restricted
   MILP returned a plan.  Otherwise the better restricted plan is returned
   (the recent one on a tie).

Every plan is feasible for the full model.  A plan within the gap of the
plain LP's bound keeps the guarantee HiGHS itself gives; a plan outside it is
the best restricted plan, not a certified one.  ``plan.solver_info`` records
``"incumbent"`` (one of :data:`INCUMBENTS`: ``"support"``, ``"recent"`` or
``"milp"``, the solve whose plan is returned) and ``"lp_bound_gap"``, the
plan's gap below the plain LP's bound.

The full MILP no longer follows a restricted plan that misses the gap.  On
fig5_loki (benchmark budget, seeds 0-1) it ran at the two peak ticks of each
seed, took 250-650 ms of CPU a solve on a 2-core container, set the slowest
control tick, and stopped at 0.93% and 2.6% of HiGHS's own bound.
On a grid of 160 points (1.1x-3.0x the hardware-scaling capacity in steps of
0.1, both paper pipelines, the 0.2% and 1% gaps, with and without the
stability bonus) the returned plan lies 0.05-0.09% below the full MILP's
objective on average and 0.61% at worst; ``tests/core/test_support_incumbent.py``
bounds it at 1%.  Step 3 keeps every path of the widened ``x`` set, not only
the paths made of recent configurations: on the grid the two read the same,
but on the builtin ``traffic_azure_mmpp`` at the default gap (seeds 0-1) the
narrower recent MILP left mean accuracy 1.6% and 2.3% below what solving
the full MILP after every missed gap gave, against 1.2% and 1.3% with the
wider one.

The one-worker slack and the three plans are constants chosen by replaying
the 80 accuracy-scaling calls of fig5_loki and fig6_loki (benchmark settings,
seeds 0-1) under variants.  The support MILP met the 1% gap on 62 calls with
the plain LP's support alone, on 70 with the ``S - 1`` LP's added and on 68
with an ``S - 2`` LP's added as well.  Of the 10 calls the ``S - 1`` support
missed, the last three plans' configurations caught 6 and the last plan's
alone 4.

Hardware capacity check
-----------------------

:meth:`AllocationProblem.solve_hardware_scaling` returns ``None`` without a
MILP when the demand exceeds ``D*``, the best-variant model's LP capacity
(its max-throughput LP relaxation).  The problem keeps ``D*`` with the
factors it was solved at.  Scale every hop multiplier down by ``s <= 1`` and
every feasible flow scaled by ``s`` stays feasible, so with ``s`` the
product of ``min(1, f_now / f_ref)`` over the best variants, ``D*`` now is at
most ``D* / s``.  A demand above that bound (by a relative 1e-6) ends the
call with no build and no solve.  Otherwise, unless the reference factors are
exactly the current ones (the kept ``D*`` then is the LP capacity), one
capacity LP at the current factors replaces the reference; at or below
``D*`` the same MILP as without the check follows.  This is exact: a demand above the LP
capacity has no LP point, so no MILP point either.  No call solves more
than the LP and the MILP an LP check alone solved.  On fig5_loki (benchmark
settings, seeds 0-1) 46 of the 70 hardware-scaling calls are infeasible, and
the bound ends all 46 with no solve.
:attr:`AllocationProblem.hardware_lp_infeasible` counts the calls the check
ended.

Feasibility jump
----------------

HiGHS (1.12.0, inside SciPy 1.17.1) runs its feasibility-jump primal
heuristic on every MIP that survives presolve, whatever its size.  On the
allocation model it is a fixed cost of 11-14 ms a solve (medians of 15
solves, 2-core container): a 141-column social support MILP took 18.1 ms
with it and 4.4 ms without, a 338-column traffic support MILP 17.5 and
4.7 ms, a 15-column hardware MILP 15.4 and 3.5 ms, with equal or better
objectives.  After the support incumbent most Resource Manager calls end at
such small MILPs, so that fixed cost had become most of their time.  Every
solve of :class:`AllocationProblem` (both hardware-scaling solves, the LP
relaxations, the support, recent and full accuracy MILPs and max throughput)
therefore passes ``feasibility_jump=False`` to :func:`repro.solver.solve`.
Without it HiGHS may break ties between equally good plans differently (a
hardware-scaling plan of the same worker count with other batch sizes).

Proteus's per-task MILPs keep HiGHS's defaults.  With the switch on
Proteus's solves too, its plans changed on 80 of the 120 solves of
fig5_proteus's ten seeds (replayed on identical inputs), and its pooled SLO
attainment fell by a quarter: 0.0939 -> 0.0660 (-29.7%) in one benchmark
run, 0.0962 -> 0.0727 (-24.4%) in a rerun, against the benchmark's 25%
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.pipeline import Pipeline, PathKey
from repro.core.profiles import ModelVariant
from repro.solver import DEFAULT_SOLVER_OPTIONS, Solution, StandardForm, solve

__all__ = [
    "Configuration",
    "ConfigPath",
    "VariantAllocation",
    "AllocationPlan",
    "AllocationProblem",
    "HARDWARE_SCALING",
    "ACCURACY_SCALING",
]

HARDWARE_SCALING = "hardware"
ACCURACY_SCALING = "accuracy"

#: total system accuracy the accuracy-scaling objective credits for keeping
#: the incumbent plan's variants (a tie-breaker, see ``_build_model``)
STABILITY_BONUS = 0.02

#: values of an accuracy-scaling plan's ``solver_info["incumbent"]``: the
#: solve that produced it (see "Support incumbent" in the module docstring)
INCUMBENTS = ("support", "recent", "milp")

#: workers the second LP relaxation of accuracy scaling leaves free for
#: rounding worker counts up (see "Support incumbent" in the module docstring)
ROUNDING_SLACK_WORKERS = 1


# ---------------------------------------------------------------------------
# Configurations and configuration-level paths
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Configuration:
    """A (task, variant, batch size) triple with its constant profile."""

    task: str
    variant: ModelVariant
    batch_size: int

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.task, self.variant.name, self.batch_size)

    @property
    def latency_ms(self) -> float:
        return self.variant.latency_ms(self.batch_size)

    @property
    def throughput_qps(self) -> float:
        return self.variant.throughput_qps(self.batch_size)

    @property
    def accuracy(self) -> float:
        return self.variant.accuracy


@dataclass(frozen=True)
class ConfigPath:
    """A root-to-sink path at configuration granularity."""

    branch_index: int
    configs: Tuple[Configuration, ...]
    multipliers: Tuple[float, ...]
    accuracy: float
    latency_ms: float

    @property
    def key(self) -> Tuple[Tuple[str, str, int], ...]:
        return tuple(c.key for c in self.configs)

    @property
    def variant_key(self) -> PathKey:
        return tuple((c.task, c.variant.name) for c in self.configs)

    @property
    def tasks(self) -> Tuple[str, ...]:
        return tuple(c.task for c in self.configs)


# ---------------------------------------------------------------------------
# Decoded plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VariantAllocation:
    """One row of a resource-allocation plan."""

    task: str
    variant_name: str
    batch_size: int
    replicas: int
    throughput_qps: float
    latency_ms: float
    accuracy: float

    @property
    def total_throughput_qps(self) -> float:
        return self.replicas * self.throughput_qps


@dataclass
class AllocationPlan:
    """The output of the Resource Manager for one invocation.

    Attributes
    ----------
    mode:
        ``"hardware"`` when the demand was met with the most accurate variants
        (step 1), ``"accuracy"`` when accuracy scaling was needed (step 2).
    allocations:
        One entry per hosted (variant, batch size) with a positive replica
        count.
    path_ratios:
        ``c(p)`` per variant-level path key, normalised per branch.
    expected_accuracy:
        The MILP's estimate of system accuracy under this plan (the objective
        of step 2; for step 1 it equals the maximum end-to-end accuracy).
    total_workers:
        Number of workers used (Σ x).
    demand_qps:
        The demand the plan was provisioned for.
    feasible:
        False when even accuracy scaling could not meet the demand; the
        allocations then describe the best-effort max-throughput plan.
    """

    pipeline_name: str
    mode: str
    demand_qps: float
    allocations: List[VariantAllocation]
    path_ratios: Dict[PathKey, float]
    expected_accuracy: float
    total_workers: int
    feasible: bool = True
    solver_info: Dict[str, object] = field(default_factory=dict)

    # -- helpers -----------------------------------------------------------
    def allocations_for(self, task: str) -> List[VariantAllocation]:
        return [a for a in self.allocations if a.task == task]

    def workers_for(self, task: str) -> int:
        return sum(a.replicas for a in self.allocations_for(task))

    def variants_for(self, task: str) -> List[str]:
        return sorted({a.variant_name for a in self.allocations_for(task)})

    def tasks(self) -> List[str]:
        return sorted({a.task for a in self.allocations})

    def capacity_qps(self, task: str) -> float:
        """Aggregate throughput capacity provisioned for ``task``."""
        return sum(a.total_throughput_qps for a in self.allocations_for(task))

    def latency_budget_ms(self, task: str, variant_name: str, batch_size: int) -> float:
        for a in self.allocations:
            if a.task == task and a.variant_name == variant_name and a.batch_size == batch_size:
                return a.latency_ms
        raise KeyError(f"no allocation for {task}/{variant_name}/b{batch_size}")

    def summary(self) -> str:
        lines = [
            f"plan[{self.pipeline_name}] mode={self.mode} demand={self.demand_qps:.1f} qps "
            f"workers={self.total_workers} accuracy={self.expected_accuracy:.4f} feasible={self.feasible}"
        ]
        for a in sorted(self.allocations, key=lambda a: (a.task, -a.accuracy)):
            lines.append(
                f"  {a.task:<22} {a.variant_name:<18} b={a.batch_size:<3} x{a.replicas:<3} "
                f"{a.total_throughput_qps:8.1f} qps  {a.latency_ms:6.1f} ms"
            )
        return "\n".join(lines)


@dataclass
class _Structure:
    """The part of one model that neither the factor estimates nor the demand move (see "Array form").

    ``paths`` holds ``(branch, configurations, hops, accuracy, latency)`` per
    path, ``hops`` the ``(upstream variant, branch ratio)`` of each hop after
    the first.  The arrays stay ``None`` when the SLO prunes a whole branch.
    """

    configs: List[Configuration]
    paths: List[tuple]
    #: capacity rows (2) and the cluster-size row (3), multipliers left at zero
    capacity: Optional[np.ndarray] = None
    #: ``(row, column, hop)``: where each designated hop's multiplier goes
    multiplier_entries: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    #: demand and coupling rows
    eq: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------
class AllocationProblem:
    """Builds and solves the hardware/accuracy-scaling MILPs for one pipeline.

    Parameters
    ----------
    pipeline:
        The pipeline to provision.
    num_workers:
        Cluster size ``S``.
    latency_slo_ms:
        End-to-end SLO ``L``; defaults to the pipeline's configured SLO.
    communication_latency_ms:
        Homogeneous per-hop communication latency subtracted from the SLO
        (Section 4.2).
    batch_sizes:
        Allowed batch sizes ``B``; defaults to each variant's own allowed set
        intersected with this set.
    slo_slack_factor:
        The queueing allowance of Section 4.1: the processing budget is
        ``SLO / slo_slack_factor`` (the paper divides by two).
    multiplicative_factors:
        Optional overrides ``{variant_name: factor}`` from runtime estimates
        (heartbeats); defaults to the profiled factors.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int,
        latency_slo_ms: Optional[float] = None,
        communication_latency_ms: float = 2.0,
        batch_sizes: Optional[Sequence[int]] = None,
        slo_slack_factor: float = 2.0,
        utilization_target: float = 0.8,
        multiplicative_factors: Optional[Mapping[str, float]] = None,
        solver_options: Optional[Dict[str, object]] = None,
    ):
        if num_workers < 1:
            raise ValueError("cluster must have at least one worker")
        if not (0.0 < utilization_target <= 1.0):
            raise ValueError("utilization_target must be in (0, 1]")
        self.pipeline = pipeline
        self.num_workers = int(num_workers)
        self.latency_slo_ms = float(latency_slo_ms if latency_slo_ms is not None else pipeline.latency_slo_ms)
        self.communication_latency_ms = float(communication_latency_ms)
        self.batch_sizes = tuple(batch_sizes) if batch_sizes is not None else None
        self.slo_slack_factor = float(slo_slack_factor)
        # Capacity is provisioned at a target utilisation below 1 so queueing
        # delay stays within the SLO/2 waiting allowance (arrivals are bursty;
        # running replicas at 100% of their profiled throughput would make
        # waiting times unbounded).
        self.utilization_target = float(utilization_target)
        self.multiplicative_factors = dict(multiplicative_factors or {})
        self.solver_options = dict(DEFAULT_SOLVER_OPTIONS if solver_options is None else solver_options)
        #: hardware-scaling calls whose capacity check proved them infeasible
        self.hardware_lp_infeasible = 0
        self._configurations: Dict[bool, List[Configuration]] = {}
        self._structures: Dict[Tuple[bool, bool], _Structure] = {}
        #: factors (task -> best variant's) of the last capacity LP, and its LP capacity
        self._capacity: Optional[Tuple[Dict[str, float], float]] = None

        self._task_paths = pipeline.task_paths()
        self._designated_branch: Dict[str, int] = {}
        for branch_index, task_path in enumerate(self._task_paths):
            for task in task_path:
                self._designated_branch.setdefault(task, branch_index)

    # -- profile access with runtime overrides -----------------------------
    def multiplicative_factor(self, variant: ModelVariant) -> float:
        return self.multiplicative_factors.get(variant.name, variant.multiplicative_factor)

    def allowed_batches(self, variant: ModelVariant) -> Tuple[int, ...]:
        if self.batch_sizes is None:
            return tuple(sorted(variant.batch_sizes))
        return tuple(sorted(set(variant.batch_sizes) & set(self.batch_sizes)))

    def effective_throughput_qps(self, config: Configuration) -> float:
        """Capacity credited to one instance of ``config`` (profiled throughput x target utilisation)."""
        return config.throughput_qps * self.utilization_target

    def effective_budget_ms(self, num_hops: int) -> float:
        """Processing-latency budget for a path with ``num_hops`` tasks.

        Implements Section 4.2: the SLO is divided by ``slo_slack_factor``
        (2 by default) to leave room for queueing, and the aggregate
        communication latency of the path's hops is subtracted.
        """
        return self.latency_slo_ms / self.slo_slack_factor - num_hops * self.communication_latency_ms

    # -- configuration-level path enumeration -------------------------------
    def configurations(self, restrict_to_best: bool = False) -> List[Configuration]:
        """All (task, variant, batch) configurations, optionally only the most accurate variants (shared: read-only)."""
        if restrict_to_best not in self._configurations:
            configs: List[Configuration] = []
            for task_name in self.pipeline.topological_order():
                variants = self.pipeline.registry.variants(task_name)
                if restrict_to_best:
                    variants = variants[:1]
                for variant in variants:
                    for batch in self.allowed_batches(variant):
                        configs.append(Configuration(task=task_name, variant=variant, batch_size=batch))
            self._configurations[restrict_to_best] = configs
        return self._configurations[restrict_to_best]

    def config_paths(self, restrict_to_best: bool = False, maximal_only: bool = False) -> List[ConfigPath]:
        """Latency-feasible configuration paths (constraint (7) applied by pruning).

        ``maximal_only`` keeps only the paths no other feasible path of the
        same branch and variant sequence dominates (see "Path reduction" in
        the module docstring), as a subsequence of the full enumeration.
        The hop multipliers are those of the current ``multiplicative_factors``.
        """
        paths = []
        for branch_index, configs, hops, accuracy, latency in self._structure(restrict_to_best, maximal_only).paths:
            multipliers = [1.0]
            for upstream, branch_ratio in hops:
                multipliers.append(multipliers[-1] * (self.multiplicative_factor(upstream) * branch_ratio))
            paths.append(ConfigPath(branch_index, configs, tuple(multipliers), accuracy, latency))
        return paths

    def _extend_paths(
        self,
        out: List[tuple],
        branch_index: int,
        task_path: Sequence[str],
        per_task_configs: Sequence[Sequence[Configuration]],
        budget_ms: float,
        maximal_only: bool,
    ) -> None:
        """Depth-first enumeration with latency-based pruning.

        Latency, accuracy and the upstream variant and edge branch ratio of
        each hop after the first accumulate along the way, in path order;
        :meth:`config_paths` multiplies them into the hop multipliers.  So
        does the cheapest latency increase of raising one hop to a larger
        batch of its variant; with ``maximal_only`` a path that can afford it
        is dominated and dropped.
        """
        n = len(task_path)
        latencies = [[c.latency_ms for c in configs] for configs in per_task_configs]
        raise_cost = [
            [
                min(
                    (other_latency - config_latency
                     for other, other_latency in zip(configs, task_latencies)
                     if other.variant.name == config.variant.name and other.batch_size > config.batch_size),
                    default=math.inf,
                )
                for config, config_latency in zip(configs, task_latencies)
            ]
            for configs, task_latencies in zip(per_task_configs, latencies)
        ]
        branch_ratios = [self.pipeline.edge(a, b).branch_ratio for a, b in zip(task_path, task_path[1:])]
        # Lower bound on remaining latency from each position enables pruning.
        min_remaining = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            min_remaining[i] = min_remaining[i + 1] + min(latencies[i])

        def visit(position: int, chosen: Tuple[Configuration, ...], hops: Tuple[Tuple[ModelVariant, float], ...],
                  accuracy: float, latency: float, cheapest_raise: float):
            if latency + min_remaining[position] > budget_ms + 1e-9:
                return
            if position == n:
                if maximal_only and latency + cheapest_raise <= budget_ms + 1e-9:
                    return
                out.append((branch_index, chosen, hops, accuracy, latency))
                return
            if position > 0:
                hops = hops + ((chosen[-1].variant, branch_ratios[position - 1]),)
            for config, config_latency, config_raise in zip(
                per_task_configs[position], latencies[position], raise_cost[position]
            ):
                visit(position + 1, chosen + (config,), hops,
                      accuracy * config.accuracy, latency + config_latency, min(cheapest_raise, config_raise))

        visit(0, (), (), 1, 0.0, math.inf)

    # -- MILP assembly -------------------------------------------------------
    def _structure(self, restrict_to_best: bool, maximal_only: bool) -> _Structure:
        """The part of a model that neither the factor estimates nor the demand move, built once (see "Array form")."""
        key = (restrict_to_best, maximal_only)
        if key in self._structures:
            return self._structures[key]
        configs = self.configurations(restrict_to_best)
        structure = self._structures[key] = _Structure(configs, [])
        for branch_index, task_path in enumerate(self._task_paths):
            per_task_configs = [[c for c in configs if c.task == task] for task in task_path]
            budget = self.effective_budget_ms(len(task_path))
            self._extend_paths(structure.paths, branch_index, task_path, per_task_configs, budget, maximal_only)
        paths = structure.paths
        num_branches = len(self._task_paths)
        branch = np.array([path[0] for path in paths], dtype=int)
        if len(np.unique(branch)) < num_branches:
            return structure
        num_x, num_g = len(configs), len(paths)
        num_vars = num_x + num_g + 1  # sliced off at build time unless D is a variable
        g = slice(num_x, num_x + num_g)

        # Path x configuration incidence, one entry per hop in path order.
        column = {config.key: j for j, config in enumerate(configs)}
        rows = np.array([p for p, path in enumerate(paths) for _ in path[1]], dtype=int)
        cols = np.array([column[config.key] for path in paths for config in path[1]], dtype=int)
        on_path = np.zeros((num_g, num_x), dtype=bool)
        on_path[rows, cols] = True
        designated_branch = np.array([self._designated_branch[config.task] for config in configs])
        designated = on_path & (designated_branch[None, :] == branch[:, None])

        # Capacity constraint (2): load on each configuration from its
        # designated branch must fit the provisioned throughput, then the
        # cluster size constraint (3).  The designated hops' multipliers are
        # filled in per build, at (configuration's row, path's g column).
        loaded = designated.any(axis=0)
        throughput = np.array([self.effective_throughput_qps(config) for config in configs])
        structure.capacity = np.zeros((int(loaded.sum()) + 1, num_vars))
        structure.capacity[:-1, :num_x] = np.diag(-throughput)[loaded]
        structure.capacity[-1, :num_x] = 1.0
        hop_designated = designated[rows, cols]
        structure.multiplier_entries = (
            (np.cumsum(loaded) - 1)[cols[hop_designated]], num_x + rows[hop_designated], np.flatnonzero(hop_designated)
        )

        # Demand coverage per branch, Σ_{p in branch} g(p) = D, then the
        # shared-prefix coupling (see module docstring): per configuration of
        # a shared task, the flow of the first branch through it equals that
        # of every other branch.  Configurations are sorted so the row order
        # (and therefore solver tie-breaks between equally optimal plans) does
        # not depend on PYTHONHASHSEED.
        in_branch = (branch[None, :] == np.arange(num_branches)[:, None]).astype(float)
        demand = np.zeros((num_branches, num_vars))
        demand[:, g] = in_branch
        demand[:, -1] = -1.0
        eq_rows = [demand]
        used = on_path.any(axis=0)
        for task in dict.fromkeys(task for task_path in self._task_paths for task in task_path):
            reference, *others = [b for b, task_path in enumerate(self._task_paths) if task in task_path]
            if not others:
                continue
            task_columns = [j for j, config in enumerate(configs) if config.task == task and used[j]]
            for j in sorted(task_columns, key=lambda j: configs[j].key):
                for other in others:
                    row = np.zeros((1, num_vars))
                    row[0, g] = on_path[:, j] * (in_branch[reference] - in_branch[other])
                    eq_rows.append(row)
        structure.eq = np.vstack(eq_rows)
        return structure

    def _build_model(
        self,
        demand_qps: Optional[float],
        mode: str,
        restrict_to_best: bool,
        accuracy_floor: Optional[float] = None,
        preferred_variants: Optional[Iterable[str]] = None,
    ) -> Optional[Tuple[StandardForm, List[Configuration], List[ConfigPath]]]:
        """Assemble the MILP shared by all solve entry points as arrays.

        Columns are ``x`` per configuration in :meth:`configurations` order,
        then ``g`` per path in :meth:`config_paths` order, then ``D`` when
        ``demand_qps`` is ``None`` (the demand becomes an optimisation
        variable, used to compute the maximum supportable demand).  Returns
        ``None`` when the latency budget prunes every path of some branch:
        the problem is then structurally infeasible for this SLO.  Only the
        multipliers, the demand and the objective are filled in per call
        (see "Array form" in the module docstring).
        """
        # Only accuracy scaling drops dominated paths: the capacity entry
        # points stay exact (see "Path reduction" in the module docstring).
        maximal_only = mode == ACCURACY_SCALING
        structure = self._structure(restrict_to_best, maximal_only)
        if structure.eq is None:
            return None
        configs = structure.configs
        paths = self.config_paths(restrict_to_best, maximal_only)
        num_branches = len(self._task_paths)
        num_x, num_g = len(configs), len(paths)
        num_vars = num_x + num_g + (demand_qps is None)
        g = slice(num_x, num_x + num_g)
        accuracy = np.array([path.accuracy for path in paths])

        capacity = structure.capacity[:, :num_vars].copy()
        rows, columns, hops = structure.multiplier_entries
        capacity[rows, columns] = np.array([m for path in paths for m in path.multipliers])[hops]
        ub_rows = [capacity]
        b_ub = [0.0] * (len(capacity) - 1) + [float(self.num_workers)]
        if accuracy_floor is not None and (demand_qps is None or demand_qps > 0):
            floor = np.zeros((1, num_vars))
            if demand_qps is None:
                # Σ_p g(p) (Â(p) - floor) >= 0 per the normalisation Σ_p g(p) = |branches| * D.
                floor[0, g] = -(accuracy - accuracy_floor)
                b_ub.append(0.0)
            else:
                floor[0, g] = -(accuracy / (num_branches * demand_qps))
                b_ub.append(-accuracy_floor)
            ub_rows.append(floor)
        eq = structure.eq[:, :num_vars]
        b_eq = [0.0 if demand_qps is None else float(demand_qps)] * num_branches + [0.0] * (len(eq) - num_branches)

        c = np.zeros(num_vars)
        sense = -1
        if mode == HARDWARE_SCALING:
            c[:num_x] = 1.0
            sense = 1
        elif mode == ACCURACY_SCALING:
            # System accuracy = (1/|branches|) Σ_p c(p) Â(p); with flows this is
            # (1/(|branches| D)) Σ_p g(p) Â(p).  D is a constant here.
            assert demand_qps is not None and demand_qps > 0
            c[g] = -(accuracy / (num_branches * demand_qps))
            # Plan-stability bonus: slightly prefer keeping the variants of the
            # incumbent plan so consecutive re-allocations do not shuffle model
            # assignments gratuitously (every shuffle costs a model-load on a
            # worker).  The bonus is small (worth ``STABILITY_BONUS`` system
            # accuracy in total), so it only breaks ties between near-optimal
            # mixes and never outweighs a real accuracy gain.
            if preferred_variants:
                preferred = set(preferred_variants)
                per_worker_bonus = STABILITY_BONUS / max(1, self.num_workers)
                for j, config in enumerate(configs):
                    if config.variant.name in preferred:
                        c[j] = -per_worker_bonus
        elif mode == "max_throughput":
            c[-1] = -1.0
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown mode {mode!r}")

        ub = np.full(num_vars, math.inf)
        ub[:num_x] = float(self.num_workers)
        integrality = np.zeros(num_vars)
        integrality[:num_x] = 1.0
        form = StandardForm(
            c=c,
            A_ub=sparse.csr_matrix(np.vstack(ub_rows)),
            b_ub=np.array(b_ub),
            A_eq=sparse.csr_matrix(eq),
            b_eq=np.array(b_eq),
            lb=np.zeros(num_vars),
            ub=ub,
            integrality=integrality,
            sense=sense,
        )
        return form, configs, paths

    # -- solving --------------------------------------------------------------
    def _solve(self, form: StandardForm) -> Solution:
        """``form`` solved under ``solver_options`` without HiGHS's feasibility jump (see "Feasibility jump" in the module docstring)."""
        return solve(form, feasibility_jump=False, **self.solver_options)

    def solve_hardware_scaling(self, demand_qps: float) -> Optional[AllocationPlan]:
        """Step 1: minimise workers using only the most accurate variants.

        Returns ``None`` when infeasible (the Resource Manager then falls back
        to accuracy scaling); a demand above the best-variant LP capacity ends
        the call before the MILP ("Hardware capacity check" in the module
        docstring).
        """
        structure = self._structure(True, False)
        if structure.eq is None:
            return None
        factors = {config.task: self.multiplicative_factor(config.variant) for config in structure.configs}
        kept = self._capacity
        if (kept is None or kept[0] != factors) and not self._above_capacity(demand_qps, factors):
            # The kept D* is from other factors and their bound cannot decide:
            # one capacity LP at the current ones.
            relaxation = self._solve(_relaxed(self._build_model(None, "max_throughput", True)[0]))
            self._capacity = factors, float(relaxation.x[-1]) if relaxation.is_optimal else math.inf
        if self._above_capacity(demand_qps, factors):
            # No LP point, so no MILP point either ("Hardware capacity check").
            self.hardware_lp_infeasible += 1
            return None
        form, configs, paths = self._build_model(demand_qps=demand_qps, mode=HARDWARE_SCALING, restrict_to_best=True)
        solution = self._solve(form)
        if not solution.is_optimal:
            return None
        return self._decode(solution, configs, paths, demand_qps, HARDWARE_SCALING)

    def _above_capacity(self, demand_qps: float, factors: Mapping[str, float]) -> bool:
        """Whether the last capacity LP proves ``demand_qps`` above the LP capacity at ``factors`` (task -> best variant's factor).

        See "Hardware capacity check" in the module docstring for the bound.
        """
        if self._capacity is None:
            return False
        reference, capacity = self._capacity
        scale = math.prod(min(1.0, factors[task] / reference[task]) for task in factors if reference[task] > 0)
        return demand_qps * scale > capacity * (1.0 + 1e-6)

    def solve_accuracy_scaling(
        self,
        demand_qps: float,
        accuracy_floor: Optional[float] = None,
        preferred_variants: Optional[Iterable[str]] = None,
        recent_configs: Iterable[Tuple[str, str, int]] = (),
    ) -> Optional[AllocationPlan]:
        """Step 2: maximise system accuracy using the whole cluster.

        Solved over the maximal-batch paths only ("Path reduction" in the
        module docstring): two LP relaxations, the support MILP and, when
        ``recent_configs`` (``(task, variant, batch)`` keys of recent plans)
        widen that support, the recent MILP; the full MILP only when neither
        restricted MILP finds a plan ("Support incumbent").
        ``preferred_variants`` lists the variants of the incumbent plan; a
        small stability bonus steers ties toward reusing them (fewer model
        swaps between consecutive invocations).
        """
        built = self._build_model(
            demand_qps=demand_qps,
            mode=ACCURACY_SCALING,
            restrict_to_best=False,
            accuracy_floor=accuracy_floor,
            preferred_variants=preferred_variants,
        )
        if built is None:
            return None
        form, configs, paths = built
        relaxation = self._solve(_relaxed(form))
        if not relaxation.is_optimal:
            return None  # no LP point, so no MILP point either
        # The cluster-size row (3) follows the capacity rows and precedes the
        # optional accuracy-floor row (see ``_build_model``).
        cluster_row = form.b_ub.size - 1 - (accuracy_floor is not None)
        b_ub = form.b_ub.copy()
        b_ub[cluster_row] -= ROUNDING_SLACK_WORKERS
        slack = self._solve(_relaxed(replace(form, b_ub=b_ub)))
        support = self._support(relaxation, configs, paths)
        if slack.is_optimal:
            support |= self._support(slack, configs, paths)

        # ``_solve_highs`` solves to a 1e-6 gap when no ``mip_rel_gap`` is given.
        gap_tolerance = float(self.solver_options.get("mip_rel_gap", 1e-6))

        def within_gap(solution: Solution) -> bool:
            return solution.is_optimal and _relative_gap(relaxation.objective, solution.objective) <= gap_tolerance

        candidates = {}
        solution = candidates["support"] = self._solve(_restricted(form, support))
        if not within_gap(solution):
            recent = self._recent_support(support, configs, paths, recent_configs)
            if recent is not None:
                candidates["recent"] = self._solve(_restricted(form, recent))
        solved = [(name, solution) for name, solution in candidates.items() if solution.is_optimal]
        if not solved:
            # The full MILP is the fallback for when no restricted MILP found a plan.
            solution = self._solve(form)
            if not solution.is_optimal:
                return None
            solved = [("milp", solution)]
        # The better restricted plan wins, the recent one on a tie.
        incumbent, solution = max(reversed(solved), key=lambda candidate: candidate[1].objective)
        plan = self._decode(solution, configs, paths, demand_qps, ACCURACY_SCALING)
        plan.solver_info["incumbent"] = incumbent
        plan.solver_info["lp_bound_gap"] = _relative_gap(relaxation.objective, solution.objective)
        return plan

    @staticmethod
    def _support(relaxation: Solution, configs: List[Configuration], paths: List[ConfigPath]) -> np.ndarray:
        """Mask of the columns in an LP relaxation's support.

        The support is every column with a positive value in ``relaxation``,
        plus the ``x`` column of every configuration on a path with positive
        flow (see "Support incumbent" in the module docstring).
        """
        num_x = len(configs)
        support = relaxation.x > 1e-9
        column = {config.key: j for j, config in enumerate(configs)}
        for path, flowing in zip(paths, support[num_x : num_x + len(paths)].tolist()):
            if flowing:
                support[[column[config.key] for config in path.configs]] = True
        return support

    @staticmethod
    def _recent_support(
        support: np.ndarray,
        configs: List[Configuration],
        paths: List[ConfigPath],
        recent_configs: Iterable[Tuple[str, str, int]],
    ) -> Optional[np.ndarray]:
        """``support`` widened by the ``x`` columns of ``recent_configs`` and every path made of widened ``x`` columns.

        A path joins when each of its configurations is in the support or in
        ``recent_configs``.  ``None`` when ``recent_configs`` adds no ``x``
        column: there is no recent MILP then.
        """
        recent = set(recent_configs)
        num_x = len(configs)
        widened = support.copy()
        widened[:num_x] |= [config.key in recent for config in configs]
        if np.array_equal(widened[:num_x], support[:num_x]):
            return None
        kept = {config.key for config, keep in zip(configs, widened[:num_x].tolist()) if keep}
        widened[num_x : num_x + len(paths)] |= [
            all(config.key in kept for config in path.configs) for path in paths
        ]
        return widened

    def solve(
        self,
        demand_qps: float,
        preferred_variants: Optional[Iterable[str]] = None,
        recent_configs: Iterable[Tuple[str, str, int]] = (),
    ) -> AllocationPlan:
        """The Resource Manager's two-step procedure (Section 4).

        Try hardware scaling at maximum accuracy first; if infeasible, fall
        back to accuracy scaling; if that is also infeasible, return the
        best-effort max-throughput plan flagged ``feasible=False``.
        """
        plan = self.solve_hardware_scaling(demand_qps)
        if plan is not None:
            return plan
        plan = self.solve_accuracy_scaling(
            demand_qps, preferred_variants=preferred_variants, recent_configs=recent_configs
        )
        if plan is not None:
            return plan
        return self.best_effort_plan(demand_qps)

    def best_effort_plan(self, demand_qps: float) -> AllocationPlan:
        """When even accuracy scaling cannot meet demand, provision the cluster
        for its maximum supportable throughput and mark the plan infeasible."""
        capacity = self.max_supported_demand()
        return replace(
            capacity.plan,
            mode=ACCURACY_SCALING,
            demand_qps=demand_qps,
            feasible=False,
            solver_info={**capacity.plan.solver_info, "max_supported_qps": capacity.max_demand_qps},
        )

    def max_supported_demand(self, restrict_to_best: bool = False, accuracy_floor: Optional[float] = None):
        """Maximum demand the cluster can absorb (used for Figure 1 capacity curves)."""
        built = self._build_model(
            demand_qps=None, mode="max_throughput", restrict_to_best=restrict_to_best, accuracy_floor=accuracy_floor
        )
        if built is None:
            return MaxDemandResult(max_demand_qps=0.0, plan=self._empty_plan(0.0))
        form, configs, paths = built
        solution = self._solve(form)
        if not solution.is_optimal:
            return MaxDemandResult(max_demand_qps=0.0, plan=self._empty_plan(0.0))
        max_demand = float(solution.x[-1])
        plan = self._decode(solution, configs, paths, max(max_demand, 1e-9), ACCURACY_SCALING)
        return MaxDemandResult(max_demand_qps=max_demand, plan=plan)

    # -- decoding --------------------------------------------------------------
    def _decode(
        self,
        solution: Solution,
        configs: List[Configuration],
        paths: List[ConfigPath],
        demand_qps: float,
        mode: str,
    ) -> AllocationPlan:
        allocations: List[VariantAllocation] = []
        total_workers = 0
        num_x = len(configs)
        for config, count in zip(configs, solution.x[:num_x].tolist()):
            replicas = int(round(count))
            if replicas <= 0:
                continue
            total_workers += replicas
            allocations.append(
                VariantAllocation(
                    task=config.task,
                    variant_name=config.variant.name,
                    batch_size=config.batch_size,
                    replicas=replicas,
                    throughput_qps=self.effective_throughput_qps(config),
                    latency_ms=config.latency_ms,
                    accuracy=config.accuracy,
                )
            )

        num_branches = max(1, len(self._task_paths))
        path_ratios: Dict[PathKey, float] = {}
        accuracy_numerator = 0.0
        for path, flow in zip(paths, solution.x[num_x : num_x + len(paths)].tolist()):
            if flow <= 1e-9:
                continue
            ratio = flow / demand_qps if demand_qps > 0 else 0.0
            path_ratios[path.variant_key] = path_ratios.get(path.variant_key, 0.0) + ratio
            accuracy_numerator += ratio * path.accuracy
        expected_accuracy = accuracy_numerator / num_branches if path_ratios else 0.0

        return AllocationPlan(
            pipeline_name=self.pipeline.name,
            mode=mode,
            demand_qps=demand_qps,
            allocations=allocations,
            path_ratios=path_ratios,
            expected_accuracy=expected_accuracy,
            total_workers=total_workers,
            feasible=True,
            solver_info=dict(solution.info),
        )

    def _empty_plan(self, demand_qps: float) -> AllocationPlan:
        return AllocationPlan(
            pipeline_name=self.pipeline.name,
            mode=ACCURACY_SCALING,
            demand_qps=demand_qps,
            allocations=[],
            path_ratios={},
            expected_accuracy=0.0,
            total_workers=0,
            feasible=False,
        )


def _relaxed(form: StandardForm) -> StandardForm:
    """``form``'s LP relaxation: every column continuous."""
    return replace(form, integrality=np.zeros_like(form.integrality))


def _restricted(form: StandardForm, keep: np.ndarray) -> StandardForm:
    """``form`` with ``ub = 0`` on every column outside the mask ``keep``."""
    ub = form.ub.copy()
    ub[~keep] = 0.0
    return replace(form, ub=ub)


def _relative_gap(bound: float, objective: float) -> float:
    """Gap of a maximisation ``objective`` below its ``bound``, relative to ``|objective|`` as HiGHS measures it.

    Accuracy-scaling objectives are positive: every path has positive accuracy.
    """
    return max(0.0, bound - objective) / abs(objective)


@dataclass
class MaxDemandResult:
    """Result of :meth:`AllocationProblem.max_supported_demand`."""

    max_demand_qps: float
    plan: AllocationPlan
