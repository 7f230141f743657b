"""Tests for pipeline graphs."""

import pytest

from repro.core.pipeline import Edge, Pipeline, PipelineError, Task
from repro.core.profiles import ProfileRegistry

from tests.conftest import make_variant


class TestPipelineStructure:
    def test_root_and_sinks(self, branching_pipeline):
        assert branching_pipeline.root == "detect"
        assert set(branching_pipeline.sinks) == {"classify_a", "classify_b"}

    def test_topological_order_starts_at_root(self, branching_pipeline):
        order = branching_pipeline.topological_order()
        assert order[0] == "detect"
        assert set(order) == set(branching_pipeline.tasks)

    def test_children_and_parent(self, branching_pipeline):
        children = [e.child for e in branching_pipeline.children("detect")]
        assert set(children) == {"classify_a", "classify_b"}
        assert branching_pipeline.parent("classify_a") == "detect"
        assert branching_pipeline.parent("detect") is None

    def test_depth_and_max_depth(self, branching_pipeline):
        assert branching_pipeline.depth("detect") == 0
        assert branching_pipeline.depth("classify_b") == 1
        assert branching_pipeline.max_depth() == 1

    def test_task_paths_enumeration(self, branching_pipeline):
        paths = branching_pipeline.task_paths()
        assert sorted(tuple(p) for p in paths) == [("detect", "classify_a"), ("detect", "classify_b")]

    def test_single_task_pipeline_path(self, single_pipeline):
        assert single_pipeline.task_paths() == [[single_pipeline.root]]
        assert single_pipeline.sinks == [single_pipeline.root]

    def test_edge_lookup(self, branching_pipeline):
        edge = branching_pipeline.edge("detect", "classify_a")
        assert edge.branch_ratio == pytest.approx(0.6)
        with pytest.raises(KeyError):
            branching_pipeline.edge("classify_a", "detect")


class TestPipelineValidation:
    def _registry(self, tasks):
        registry = ProfileRegistry()
        for i, task in enumerate(tasks):
            registry.register(task, make_variant(f"{task}_v", family=f"f{i}"))
        return registry

    def test_duplicate_task_rejected(self):
        registry = self._registry(["a"])
        with pytest.raises(PipelineError):
            Pipeline("bad", [Task("a"), Task("a")], [], registry)

    def test_multiple_roots_rejected(self):
        registry = self._registry(["a", "b"])
        with pytest.raises(PipelineError):
            Pipeline("bad", [Task("a"), Task("b")], [], registry)

    def test_multiple_parents_rejected(self):
        registry = self._registry(["a", "b", "c"])
        edges = [Edge("a", "c"), Edge("b", "c"), Edge("a", "b")]
        with pytest.raises(PipelineError):
            Pipeline("bad", [Task("a"), Task("b"), Task("c")], edges, registry)

    def test_unknown_edge_task_rejected(self):
        registry = self._registry(["a"])
        with pytest.raises(PipelineError):
            Pipeline("bad", [Task("a")], [Edge("a", "ghost")], registry)

    def test_missing_variants_rejected(self):
        registry = self._registry(["a"])
        with pytest.raises(PipelineError):
            Pipeline("bad", [Task("a"), Task("b")], [Edge("a", "b")], registry)

    def test_invalid_branch_ratio_rejected(self):
        with pytest.raises(PipelineError):
            Edge("a", "b", branch_ratio=0.0)
        with pytest.raises(PipelineError):
            Edge("a", "b", branch_ratio=1.5)


class TestAccuracyComposition:
    def test_path_accuracy_is_product(self, small_pipeline):
        selection = {
            "detect": small_pipeline.registry.variant("detect_small"),
            "classify": small_pipeline.registry.variant("classify_small"),
        }
        accuracy = small_pipeline.path_accuracy(selection, ["detect", "classify"])
        assert accuracy == pytest.approx(0.8 * 0.85)

    def test_end_to_end_accuracy_averages_paths(self, branching_pipeline):
        selection = {t: branching_pipeline.registry.most_accurate(t) for t in branching_pipeline.tasks}
        assert branching_pipeline.end_to_end_accuracy(selection) == pytest.approx(1.0)
        selection["classify_a"] = branching_pipeline.registry.variant("clsa_lo")
        # Only one of two paths degrades to 0.9 -> average 0.95.
        assert branching_pipeline.end_to_end_accuracy(selection) == pytest.approx(0.95)

    def test_max_accuracy_selection(self, small_pipeline):
        selection = small_pipeline.max_accuracy_selection()
        assert selection["detect"].name == "detect_big"
        assert small_pipeline.max_end_to_end_accuracy() == pytest.approx(1.0)

    def test_monotonicity_in_single_model_accuracy(self, branching_pipeline):
        best = branching_pipeline.max_accuracy_selection()
        degraded = dict(best)
        degraded["detect"] = branching_pipeline.registry.variant("det_lo")
        assert branching_pipeline.end_to_end_accuracy(degraded) < branching_pipeline.end_to_end_accuracy(best)

    def test_min_path_latency(self, small_pipeline):
        # Fastest variants at batch 1: detect_small 2+2=4, classify_small 2+1.5=3.5.
        assert small_pipeline.min_path_latency_ms() == pytest.approx(7.5)
