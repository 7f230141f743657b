"""Model-variant performance profiles.

A *model variant* is one member of a model family (e.g. YOLOv5s within the
YOLOv5 family) that can serve a pipeline task.  Loki's control plane never
touches model weights; everything it needs is captured by the variant's
profile:

* accuracy (normalised within its family, per Section 6.1 of the paper),
* throughput as a function of batch size, ``q(i, k, b)`` in the paper,
* the multiplicative factor ``r(i, k)`` -- how many downstream (intermediate)
  queries one incoming query generates on average, and
* the time needed to load the variant onto a worker (model-swap overhead).

In the paper these numbers come from the Model Profiler running each ONNX
model on a GTX 1080 Ti.  In this reproduction they come from the synthetic
model zoo (:mod:`repro.zoo`), whose latency curves follow the usual
``latency(b) = alpha + beta * b`` shape of GPU batch inference.  The control
plane is agnostic to where the numbers come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["BatchProfile", "ModelVariant", "ProfileRegistry", "DEFAULT_BATCH_SIZES"]

#: The set of allowed batch sizes B used throughout the paper's formulation.
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class BatchProfile:
    """Profiled behaviour of a variant at one batch size."""

    batch_size: int
    latency_ms: float

    @property
    def throughput_qps(self) -> float:
        """Steady-state queries/second when executing back-to-back batches."""
        return 1000.0 * self.batch_size / self.latency_ms


@dataclass(frozen=True)
class ModelVariant:
    """A single model variant and its profile.

    Parameters
    ----------
    name:
        Unique variant name, e.g. ``"yolov5s"``.
    family:
        Model family name, e.g. ``"yolov5"``.  Accuracy is normalised within a
        family (the most accurate member has accuracy 1.0).
    accuracy:
        Normalised accuracy in (0, 1].
    base_latency_ms:
        Fixed per-batch overhead ``alpha`` (kernel launch, pre/post-processing).
    per_item_latency_ms:
        Marginal per-item cost ``beta``; batch latency is
        ``alpha + beta * batch_size`` unless an explicit ``latency_table`` is
        given.
    multiplicative_factor:
        Average number of intermediate queries generated downstream per input
        query (``r(i,k)`` in Table 1).  1.0 for classification-style tasks.
    load_time_ms:
        Time to load the variant onto a worker (model-swap overhead).
    batch_sizes:
        Allowed batch sizes for this variant.
    latency_table:
        Optional explicit ``{batch_size: latency_ms}`` measurements overriding
        the linear model.
    raw_accuracy:
        Un-normalised accuracy metric (top-1, mAP, ...) kept for reporting.
    """

    name: str
    family: str
    accuracy: float
    base_latency_ms: float
    per_item_latency_ms: float
    multiplicative_factor: float = 1.0
    load_time_ms: float = 2000.0
    batch_sizes: Tuple[int, ...] = DEFAULT_BATCH_SIZES
    latency_table: Optional[Mapping[int, float]] = None
    raw_accuracy: float = math.nan

    def __post_init__(self):
        if not (0.0 < self.accuracy <= 1.0 + 1e-9):
            raise ValueError(f"variant {self.name!r}: accuracy must be in (0, 1], got {self.accuracy}")
        if self.base_latency_ms < 0 or self.per_item_latency_ms <= 0:
            raise ValueError(f"variant {self.name!r}: latency parameters must be positive")
        if self.multiplicative_factor <= 0:
            raise ValueError(f"variant {self.name!r}: multiplicative factor must be positive")
        if not self.batch_sizes:
            raise ValueError(f"variant {self.name!r}: needs at least one batch size")
        if self.latency_table is not None:
            if not all(latency > 0 for latency in self.latency_table.values()):
                raise ValueError(f"variant {self.name!r}: latency table values must be positive")
            object.__setattr__(self, "latency_table", dict(self.latency_table))

    # -- profile queries ---------------------------------------------------
    def latency_ms(self, batch_size: int) -> float:
        """Batch execution latency in milliseconds (``l(i,k)`` numerator)."""
        if batch_size not in self.batch_sizes:
            raise ValueError(f"variant {self.name!r}: batch size {batch_size} not in allowed set {self.batch_sizes}")
        if self.latency_table is not None and batch_size in self.latency_table:
            return float(self.latency_table[batch_size])
        return self.base_latency_ms + self.per_item_latency_ms * batch_size

    def execution_latency_ms(self, batch_count: int) -> float:
        """Execution latency for an *actual* batch of ``batch_count`` queries.

        Unlike :meth:`latency_ms` this accepts any positive count, not just the
        allowed maximum batch sizes: serving systems routinely execute partial
        batches when the queue does not fill the configured maximum.  With an
        explicit latency table the value is interpolated between measured
        batch sizes; otherwise the linear ``alpha + beta * n`` model applies.
        """
        if batch_count < 1:
            raise ValueError("batch must contain at least one query")
        if self.latency_table:
            sizes = sorted(self.latency_table)
            if batch_count <= sizes[0]:
                return float(self.latency_table[sizes[0]])
            if batch_count >= sizes[-1]:
                return float(self.latency_table[sizes[-1]])
            for low, high in zip(sizes, sizes[1:]):
                if low <= batch_count <= high:
                    fraction = (batch_count - low) / (high - low)
                    return float(
                        self.latency_table[low] + fraction * (self.latency_table[high] - self.latency_table[low])
                    )
        return self.base_latency_ms + self.per_item_latency_ms * batch_count

    def throughput_qps(self, batch_size: int) -> float:
        """Profiled throughput ``q(i, k, b)`` in queries per second."""
        return 1000.0 * batch_size / self.latency_ms(batch_size)

    def batch_profile(self, batch_size: int) -> BatchProfile:
        return BatchProfile(batch_size=batch_size, latency_ms=self.latency_ms(batch_size))

    def profiles(self) -> List[BatchProfile]:
        """All batch profiles of this variant, in increasing batch-size order."""
        return [self.batch_profile(b) for b in sorted(self.batch_sizes)]

    def max_throughput_qps(self) -> float:
        """Highest throughput across all allowed batch sizes."""
        return max(self.throughput_qps(b) for b in self.batch_sizes)

    def min_latency_ms(self) -> float:
        """Latency at batch size 1 (the smallest possible processing time)."""
        return self.latency_ms(min(self.batch_sizes))

    def __repr__(self):  # pragma: no cover - debug helper
        return f"ModelVariant({self.name!r}, acc={self.accuracy:.3f}, r={self.multiplicative_factor:g})"


class ProfileRegistry:
    """Maps pipeline tasks to their profiled model variants.

    This is the portion of the Metadata Store the Resource Manager consumes:
    for each task name it stores the list of available variants, ordered by
    accuracy (most accurate first).
    """

    def __init__(self):
        self._by_task: Dict[str, List[ModelVariant]] = {}
        self._by_name: Dict[str, Tuple[str, ModelVariant]] = {}

    # -- registration ------------------------------------------------------
    def register(self, task_name: str, variant: ModelVariant) -> None:
        """Register ``variant`` as an option for ``task_name``."""
        if variant.name in self._by_name:
            existing_task, _ = self._by_name[variant.name]
            raise ValueError(
                f"variant {variant.name!r} already registered for task {existing_task!r}"
            )
        self._by_task.setdefault(task_name, []).append(variant)
        self._by_task[task_name].sort(key=lambda v: v.accuracy, reverse=True)
        self._by_name[variant.name] = (task_name, variant)

    def register_many(self, task_name: str, variants: Iterable[ModelVariant]) -> None:
        for variant in variants:
            self.register(task_name, variant)

    # -- queries -----------------------------------------------------------
    def tasks(self) -> List[str]:
        return list(self._by_task)

    def variants(self, task_name: str) -> List[ModelVariant]:
        """Variants of ``task_name``, most accurate first."""
        if task_name not in self._by_task:
            raise KeyError(f"no variants registered for task {task_name!r}")
        return list(self._by_task[task_name])

    def variant(self, name: str) -> ModelVariant:
        return self._by_name[name][1]

    def task_of(self, variant_name: str) -> str:
        return self._by_name[variant_name][0]

    def most_accurate(self, task_name: str) -> ModelVariant:
        """``v_i^max`` of Equation (8)."""
        return self.variants(task_name)[0]

    def least_accurate(self, task_name: str) -> ModelVariant:
        return self.variants(task_name)[-1]

    def num_variants(self, task_name: Optional[str] = None) -> int:
        if task_name is None:
            return sum(len(v) for v in self._by_task.values())
        return len(self._by_task.get(task_name, []))

    def __contains__(self, variant_name: str) -> bool:
        return variant_name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def copy(self) -> "ProfileRegistry":
        clone = ProfileRegistry()
        for task_name, variants in self._by_task.items():
            for variant in variants:
                clone.register(task_name, variant)
        return clone
