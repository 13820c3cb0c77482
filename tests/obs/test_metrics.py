"""Metric primitives and the registry's family/label model."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", engine="incremental")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_zero_inc_creates_series(self):
        registry = MetricsRegistry()
        registry.counter("events_total", constraint="c1").inc(0)
        [(_, _, _, series)] = list(registry.families())
        assert series[0][0] == {"constraint": "c1"}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("aux_tuples")
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5


class TestHistogram:
    def test_bucketing_is_le(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(1.0)   # == bound -> first bucket (le semantics)
        hist.observe(1.5)
        hist.observe(9.0)   # above all bounds -> only +Inf
        assert hist.bucket_counts == [1, 1]
        assert hist.cumulative_counts() == [1, 2, 3]
        assert hist.count == 3
        assert hist.sum == pytest.approx(11.5)
        assert hist.mean == pytest.approx(11.5 / 3)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_default_latency_buckets(self):
        hist = MetricsRegistry().histogram("step_seconds")
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS

    @pytest.mark.parametrize("bounds", [
        (0.0, 1.0),            # zero
        (-1.0, 1.0),           # negative
        (1.0, float("inf")),   # +Inf is implicit, never explicit
        (1.0, float("nan")),
    ])
    def test_bounds_must_be_positive_and_finite(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            Histogram(bounds)


class TestHistogramMerge:
    def test_merge_adds_everything(self):
        a, b = Histogram((1.0, 2.0)), Histogram((1.0, 2.0))
        a.observe(0.5)
        a.observe(9.0)
        b.observe(1.5)
        a.merge(b)
        assert a.bucket_counts == [1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(11.0)
        assert b.count == 1  # the source is untouched

    def test_merge_is_commutative(self):
        def build(values):
            hist = Histogram((1.0, 4.0, 16.0))
            for value in values:
                hist.observe(value)
            return hist

        ab = build([0.5, 2.0])
        ab.merge(build([8.0, 99.0]))
        ba = build([8.0, 99.0])
        ba.merge(build([0.5, 2.0]))
        assert ab.bucket_counts == ba.bucket_counts
        assert ab.count == ba.count
        assert ab.sum == pytest.approx(ba.sum)

    def test_mismatched_buckets_rejected(self):
        a = Histogram((1.0, 2.0))
        with pytest.raises(ValueError, match="different bucket bounds"):
            a.merge(Histogram((1.0, 3.0)))
        with pytest.raises(ValueError, match="only merge a Histogram"):
            a.merge([1, 2, 3])


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert Histogram((1.0,)).quantile(0.5) == 0.0

    def test_reports_bucket_upper_bound(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.75) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_overflow_clamps_to_last_bound(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram((1.0,)).quantile(1.5)


class TestPercentile:
    """The exact counterpart over raw samples (``repro stats``)."""

    def test_interpolates_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRegistry:
    def test_same_labels_return_same_child(self):
        registry = MetricsRegistry()
        a = registry.counter("x", engine="naive")
        b = registry.counter("x", engine="naive")
        c = registry.counter("x", engine="active")
        assert a is b
        assert a is not c

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.gauge("x", engine="naive", constraint="c")
        b = registry.gauge("x", constraint="c", engine="naive")
        assert a is b

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="counter"):
            registry.gauge("x")

    def test_bucket_clash_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))
        # omitting buckets reuses the family's
        assert registry.histogram("h").buckets == (1.0, 2.0)

    def test_families_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        names = [name for name, *_ in registry.families()]
        assert names == ["aa", "zz"]
