"""Loki's core control plane: pipelines, profiles, allocation, routing.

This package implements the primary contribution of the paper:

* :mod:`repro.core.profiles` -- model-variant performance profiles
  (accuracy, throughput vs. batch size, multiplicative factors).
* :mod:`repro.core.pipeline` -- inference pipelines as directed rooted trees
  plus the augmented (task, variant[, batch]) graph of Section 4.1.
* :mod:`repro.core.allocation` -- the MILP formulations for hardware scaling
  and accuracy scaling, and decoded resource-allocation plans.
* :mod:`repro.core.validation` -- an independent check that a plan satisfies
  the full allocation model.
* :mod:`repro.core.resource_manager` -- the two-step Resource Manager with
  EWMA demand estimation and periodic re-allocation.
* :mod:`repro.core.load_balancer` -- the MostAccurateFirst routing algorithm
  (Algorithm 1) and backup tables for opportunistic rerouting.
* :mod:`repro.core.dropping` -- early-dropping policies (none, last-task,
  per-task, opportunistic rerouting).
* :mod:`repro.core.metadata` / :mod:`repro.core.controller` -- the Metadata
  Store and the Controller that ties everything together.
"""

from repro.core.profiles import ModelVariant, ProfileRegistry, BatchProfile
from repro.core.pipeline import Pipeline, Task, Edge, AugmentedGraph, PathKey
from repro.core.allocation import (
    AllocationPlan,
    VariantAllocation,
    AllocationProblem,
    build_accuracy_scaling_model,
    build_hardware_scaling_model,
)
from repro.core.validation import PlanValidationError, validate_plan
from repro.core.resource_manager import ResourceManager, DemandEstimator
from repro.core.load_balancer import LoadBalancer, RoutingTable, RoutingEntry, WorkerState
from repro.core.dropping import (
    DropDecision,
    DropPolicy,
    NoEarlyDropping,
    LastTaskDropping,
    PerTaskDropping,
    OpportunisticRerouting,
    make_drop_policy,
)
from repro.core.metadata import MetadataStore
from repro.core.controller import Controller, ControllerConfig

__all__ = [
    "ModelVariant",
    "ProfileRegistry",
    "BatchProfile",
    "Pipeline",
    "Task",
    "Edge",
    "AugmentedGraph",
    "PathKey",
    "AllocationPlan",
    "VariantAllocation",
    "AllocationProblem",
    "build_accuracy_scaling_model",
    "build_hardware_scaling_model",
    "PlanValidationError",
    "validate_plan",
    "ResourceManager",
    "DemandEstimator",
    "LoadBalancer",
    "RoutingTable",
    "RoutingEntry",
    "WorkerState",
    "DropDecision",
    "DropPolicy",
    "NoEarlyDropping",
    "LastTaskDropping",
    "PerTaskDropping",
    "OpportunisticRerouting",
    "make_drop_policy",
    "MetadataStore",
    "Controller",
    "ControllerConfig",
]
