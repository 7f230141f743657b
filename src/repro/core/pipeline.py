"""Inference pipelines as directed rooted trees.

Section 2.1 of the paper defines an inference pipeline as a directed rooted
tree: each node is a task, the root is the source that receives client
queries, leaves are sinks, and each edge carries the data flow between two
tasks.  A query entering the root may fan out along the tree (e.g. detected
cars go to the car classifier, detected persons to the facial-recognition
model); the fraction of intermediate queries following each outgoing edge is
the edge's *branch ratio*.

This module implements the pipeline graph, root-to-sink task paths and
per-path end-to-end accuracy.  Section 4.1's augmented graph, which has a
vertex per ``(task, variant)``, is enumerated where the MILP routes over it:
:meth:`repro.core.allocation.AllocationProblem.config_paths` walks its
root-to-sink paths at configuration granularity, with the per-hop
request-multiplication factors ``m(p, i, k)`` of Equation (1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.profiles import ModelVariant, ProfileRegistry

__all__ = ["Edge", "Task", "Pipeline", "PathKey", "PipelineError"]

#: A root-to-sink path through the augmented graph, as a tuple of
#: ``(task_name, variant_name)`` pairs ordered root-first.
PathKey = Tuple[Tuple[str, str], ...]


class PipelineError(ValueError):
    """Raised when a pipeline graph is malformed (not a directed rooted tree)."""


@dataclass(frozen=True)
class Edge:
    """A directed edge ``parent -> child`` in the pipeline graph.

    ``branch_ratio`` is the fraction of a parent task's *output* queries that
    flow along this edge.  For a single-child task it is 1.0; for the traffic
    analysis pipeline, e.g. 0.6 of detected objects may be cars (routed to car
    classification) and 0.4 persons (routed to facial recognition).
    """

    parent: str
    child: str
    branch_ratio: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.branch_ratio <= 1.0 + 1e-9):
            raise PipelineError(f"edge {self.parent}->{self.child}: branch ratio must be in (0, 1]")


@dataclass
class Task:
    """A pipeline task (a vertex of the pipeline graph)."""

    name: str
    description: str = ""

    def __hash__(self):
        return hash(self.name)


class Pipeline:
    """A directed rooted tree of inference tasks.

    Parameters
    ----------
    name:
        Pipeline name (used in logs, experiments and the metadata store).
    tasks:
        The tasks, in any order.
    edges:
        Directed edges.  The graph must form a rooted tree: exactly one task
        with no incoming edge (the root/source), every other task with exactly
        one incoming edge, and no cycles.
    registry:
        The :class:`~repro.core.profiles.ProfileRegistry` holding the model
        variants for each task.  Every task must have at least one variant.
    latency_slo_ms:
        End-to-end latency SLO for the pipeline (``L`` in Table 1).
    """

    def __init__(
        self,
        name: str,
        tasks: Sequence[Task],
        edges: Sequence[Edge],
        registry: ProfileRegistry,
        latency_slo_ms: float = 250.0,
    ):
        self.name = name
        self.tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.name in self.tasks:
                raise PipelineError(f"duplicate task name {task.name!r}")
            self.tasks[task.name] = task
        self.edges: List[Edge] = list(edges)
        self.registry = registry
        self.latency_slo_ms = float(latency_slo_ms)

        self._children: Dict[str, List[Edge]] = {t: [] for t in self.tasks}
        self._parent: Dict[str, Optional[str]] = {t: None for t in self.tasks}
        for edge in self.edges:
            if edge.parent not in self.tasks or edge.child not in self.tasks:
                raise PipelineError(f"edge {edge.parent}->{edge.child} references unknown task")
            if self._parent[edge.child] is not None:
                raise PipelineError(f"task {edge.child!r} has multiple parents; pipelines must be rooted trees")
            self._children[edge.parent].append(edge)
            self._parent[edge.child] = edge.parent

        self.root = self._find_root()
        self._validate_tree()
        self._validate_registry()

    # -- structure ---------------------------------------------------------
    def _find_root(self) -> str:
        roots = [name for name, parent in self._parent.items() if parent is None]
        if len(roots) != 1:
            raise PipelineError(f"pipeline must have exactly one root task, found {len(roots)}: {roots}")
        return roots[0]

    def _validate_tree(self) -> None:
        # Reachability from the root must cover every task (no disconnected
        # components and, together with the single-parent rule, no cycles).
        seen = set()
        stack = [self.root]
        while stack:
            current = stack.pop()
            if current in seen:
                raise PipelineError("pipeline graph contains a cycle")
            seen.add(current)
            stack.extend(edge.child for edge in self._children[current])
        if seen != set(self.tasks):
            missing = set(self.tasks) - seen
            raise PipelineError(f"tasks unreachable from the root: {sorted(missing)}")

    def _validate_registry(self) -> None:
        for task_name in self.tasks:
            if self.registry.num_variants(task_name) == 0:
                raise PipelineError(f"task {task_name!r} has no registered model variants")

    def children(self, task_name: str) -> List[Edge]:
        """Outgoing edges of ``task_name``."""
        return list(self._children[task_name])

    def parent(self, task_name: str) -> Optional[str]:
        return self._parent[task_name]

    def edge(self, parent: str, child: str) -> Edge:
        for e in self._children[parent]:
            if e.child == child:
                return e
        raise KeyError(f"no edge {parent}->{child}")

    @property
    def sinks(self) -> List[str]:
        return [name for name in self.topological_order() if not self._children[name]]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def topological_order(self) -> List[str]:
        """Tasks in root-first topological (BFS) order."""
        order: List[str] = []
        queue = [self.root]
        while queue:
            current = queue.pop(0)
            order.append(current)
            queue.extend(edge.child for edge in self._children[current])
        return order

    def depth(self, task_name: str) -> int:
        """Number of edges from the root to ``task_name``."""
        depth = 0
        current = task_name
        while self._parent[current] is not None:
            current = self._parent[current]
            depth += 1
        return depth

    def max_depth(self) -> int:
        return max(self.depth(sink) for sink in self.sinks)

    # -- task-level paths ----------------------------------------------------
    def task_paths(self) -> List[List[str]]:
        """All root-to-sink paths as lists of task names (root first)."""
        paths: List[List[str]] = []

        def visit(task_name: str, prefix: List[str]):
            prefix = prefix + [task_name]
            outgoing = self._children[task_name]
            if not outgoing:
                paths.append(prefix)
                return
            for edge in outgoing:
                visit(edge.child, prefix)

        visit(self.root, [])
        return paths

    # -- accuracy ------------------------------------------------------------
    def path_accuracy(self, variant_by_task: Mapping[str, ModelVariant], task_path: Sequence[str]) -> float:
        """End-to-end accuracy of one root-to-sink path, ``Â(p)``.

        The default composition rule multiplies the normalised accuracies of
        the variants along the path, matching the intuition that a downstream
        model can only be correct on inputs its upstream model handled
        correctly.  It is monotone in each single-model accuracy, which is the
        property MostAccurateFirst relies on (Section 5.1).
        """
        acc = 1.0
        for task_name in task_path:
            acc *= variant_by_task[task_name].accuracy
        return acc

    def end_to_end_accuracy(self, variant_by_task: Mapping[str, ModelVariant]) -> float:
        """Average end-to-end accuracy over all root-to-sink paths (Section 2.1)."""
        paths = self.task_paths()
        return sum(self.path_accuracy(variant_by_task, p) for p in paths) / len(paths)

    def max_accuracy_selection(self) -> Dict[str, ModelVariant]:
        """The most accurate variant for every task (``v_i^max``)."""
        return {t: self.registry.most_accurate(t) for t in self.tasks}

    def max_end_to_end_accuracy(self) -> float:
        return self.end_to_end_accuracy(self.max_accuracy_selection())

    # -- latency ---------------------------------------------------------------
    def min_path_latency_ms(self) -> float:
        """Smallest achievable processing latency over any root-to-sink path.

        Uses batch size 1 and the fastest variant of every task; below this
        value no SLO is feasible (the paper's observation for SLOs under
        ~200 ms in Section 6.4).
        """
        best = math.inf
        for task_path in self.task_paths():
            total = 0.0
            for task_name in task_path:
                total += min(v.min_latency_ms() for v in self.registry.variants(task_name))
            best = min(best, total)
        return best

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Pipeline({self.name!r}, tasks={list(self.tasks)}, root={self.root!r})"
