"""Tests for model-variant profiles and the profile registry."""


import pytest

from repro.core.profiles import DEFAULT_BATCH_SIZES, BatchProfile, ModelVariant, ProfileRegistry

from tests.conftest import make_variant


class TestModelVariant:
    def test_latency_follows_linear_model(self):
        v = make_variant("v", alpha=2.0, beta=4.0)
        assert v.latency_ms(1) == pytest.approx(6.0)
        assert v.latency_ms(8) == pytest.approx(34.0)

    def test_latency_table_overrides_linear_model(self):
        v = ModelVariant(
            name="tabled",
            family="f",
            accuracy=0.9,
            base_latency_ms=1.0,
            per_item_latency_ms=1.0,
            batch_sizes=(1, 2, 4),
            latency_table={1: 10.0, 2: 15.0, 4: 28.0},
        )
        assert v.latency_ms(2) == pytest.approx(15.0)
        assert v.throughput_qps(4) == pytest.approx(1000.0 * 4 / 28.0)

    @pytest.mark.parametrize("latency", [0.0, -5.0, float("nan")])
    def test_non_positive_latency_table_entry_rejected(self, latency):
        # a bad profile fails when it is built, not at a plan application
        with pytest.raises(ValueError, match="latency table"):
            ModelVariant(
                name="bad",
                family="f",
                accuracy=0.9,
                base_latency_ms=1.0,
                per_item_latency_ms=1.0,
                batch_sizes=(1, 2),
                latency_table={1: 10.0, 2: latency},
            )

    def test_disallowed_batch_size_rejected(self):
        v = make_variant("v", batch_sizes=(1, 2))
        with pytest.raises(ValueError):
            v.latency_ms(4)

    def test_throughput_increases_with_batch_size(self):
        v = make_variant("v", alpha=5.0, beta=2.0, batch_sizes=DEFAULT_BATCH_SIZES)
        qps = [v.throughput_qps(b) for b in sorted(v.batch_sizes)]
        assert qps == sorted(qps)

    def test_execution_latency_for_arbitrary_counts(self):
        v = make_variant("v", alpha=2.0, beta=4.0)
        assert v.execution_latency_ms(3) == pytest.approx(14.0)
        with pytest.raises(ValueError):
            v.execution_latency_ms(0)

    def test_execution_latency_interpolates_table(self):
        v = ModelVariant(
            name="tabled2",
            family="f",
            accuracy=0.9,
            base_latency_ms=1.0,
            per_item_latency_ms=1.0,
            batch_sizes=(1, 4),
            latency_table={1: 10.0, 4: 40.0},
        )
        assert v.execution_latency_ms(1) == pytest.approx(10.0)
        assert v.execution_latency_ms(4) == pytest.approx(40.0)
        assert 10.0 < v.execution_latency_ms(2) < 40.0
        assert v.execution_latency_ms(8) == pytest.approx(40.0)  # clamped to the largest measurement

    def test_min_latency_and_max_throughput(self):
        v = make_variant("v", alpha=2.0, beta=4.0, batch_sizes=(1, 2, 4))
        assert v.min_latency_ms() == pytest.approx(6.0)
        assert v.max_throughput_qps() == pytest.approx(v.throughput_qps(4))

    def test_batch_profile_objects(self):
        v = make_variant("v", alpha=2.0, beta=4.0, batch_sizes=(1, 4))
        profiles = v.profiles()
        assert [p.batch_size for p in profiles] == [1, 4]
        assert isinstance(profiles[0], BatchProfile)
        assert profiles[1].throughput_qps == pytest.approx(v.throughput_qps(4))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"accuracy": 0.0},
            {"accuracy": 1.5},
            {"beta": 0.0},
            {"factor": 0.0},
            {"batch_sizes": ()},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        defaults = dict(name="bad", accuracy=0.9, alpha=1.0, beta=1.0, factor=1.0, batch_sizes=(1,))
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            make_variant(
                defaults["name"],
                accuracy=defaults["accuracy"],
                alpha=defaults["alpha"],
                beta=defaults["beta"],
                factor=defaults["factor"],
                batch_sizes=defaults["batch_sizes"],
            )


class TestProfileRegistry:
    def test_variants_sorted_most_accurate_first(self):
        registry = ProfileRegistry()
        registry.register("task", make_variant("low", accuracy=0.7))
        registry.register("task", make_variant("high", accuracy=1.0))
        registry.register("task", make_variant("mid", accuracy=0.85))
        names = [v.name for v in registry.variants("task")]
        assert names == ["high", "mid", "low"]
        assert registry.most_accurate("task").name == "high"
        assert registry.least_accurate("task").name == "low"

    def test_duplicate_variant_name_rejected(self):
        registry = ProfileRegistry()
        registry.register("a", make_variant("v1"))
        with pytest.raises(ValueError):
            registry.register("b", make_variant("v1"))

    def test_unknown_task_raises(self):
        registry = ProfileRegistry()
        with pytest.raises(KeyError):
            registry.variants("missing")

    def test_lookup_by_name_and_task_of(self):
        registry = ProfileRegistry()
        registry.register("detect", make_variant("d1"))
        assert registry.variant("d1").name == "d1"
        assert registry.task_of("d1") == "detect"
        assert "d1" in registry
        assert "other" not in registry

    def test_counts_and_len(self):
        registry = ProfileRegistry()
        registry.register_many("a", [make_variant("a1"), make_variant("a2", accuracy=0.9)])
        registry.register("b", make_variant("b1"))
        assert registry.num_variants("a") == 2
        assert registry.num_variants() == 3
        assert len(registry) == 3
        assert set(registry.tasks()) == {"a", "b"}

    def test_copy_is_independent(self):
        registry = ProfileRegistry()
        registry.register("a", make_variant("a1"))
        clone = registry.copy()
        clone.register("a", make_variant("a2", accuracy=0.9))
        assert registry.num_variants("a") == 1
        assert clone.num_variants("a") == 2
