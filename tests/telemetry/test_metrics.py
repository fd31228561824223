"""Unit tests for the metrics registry."""

import pytest

from repro.telemetry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_counts_up(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        assert g.value == 15.0


class TestHistogram:
    def test_bucketing(self):
        h = Histogram(bounds=(10.0, 100.0))
        for value in (5, 10, 50, 1000):
            h.observe(value)
        # <=10, <=100, +Inf
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == 1065.0
        assert h.mean == pytest.approx(266.25)

    def test_requires_sorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(100.0, 10.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_quantile_interpolates(self):
        h = Histogram(bounds=(100.0, 200.0))
        for _ in range(10):
            h.observe(150.0)  # all in the (100, 200] bucket
        # Rank interpolation within the bucket: p50 lands mid-bucket.
        assert h.quantile(0.5) == pytest.approx(150.0)
        assert 100.0 < h.quantile(0.01) <= h.quantile(0.99) <= 200.0

    def test_quantile_overflow_clamps_to_last_bound(self):
        h = Histogram(bounds=(10.0,))
        h.observe(1e9)
        assert h.quantile(0.99) == 10.0

    def test_quantile_empty_and_bad_q(self):
        h = Histogram(bounds=(10.0,))
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_merge_adds_counts(self):
        a = Histogram(bounds=(10.0, 100.0))
        b = Histogram(bounds=(10.0, 100.0))
        a.observe(5)
        b.observe(50)
        b.observe(500)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == 555.0

    def test_merge_rejects_different_bounds(self):
        populated = Histogram(bounds=(20.0,))
        populated.observe(5)
        target = Histogram(bounds=(10.0,))
        target.observe(5)
        with pytest.raises(ValueError):
            target.merge(populated)

    def test_merge_empty_histogram_is_noop(self):
        # An unpopulated instrument carries no information, so it
        # merges into anything — even with mismatched bounds.
        target = Histogram(bounds=(10.0,))
        target.observe(5)
        target.merge(Histogram(bounds=(20.0,)))
        assert target.count == 1
        assert target.bounds == (10.0,)

    def test_empty_histogram_adopts_bounds_on_merge(self):
        populated = Histogram(bounds=(20.0, 40.0))
        populated.observe(30)
        target = Histogram(bounds=(10.0,))
        target.merge(populated)
        assert target.bounds == (20.0, 40.0)
        assert target.count == 1
        assert target.counts == [0, 1, 0]

    def test_single_sample_quantile_is_exact(self):
        h = Histogram(bounds=(100.0, 200.0))
        h.observe(137.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(137.0)

    def test_to_dict_round_trips_state(self):
        h = Histogram(bounds=(10.0,))
        h.observe(3)
        state = h.to_dict()
        assert state == {"bounds": [10.0], "counts": [1, 0],
                         "count": 1, "sum": 3.0}


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", host="h1")
        b = reg.counter("requests_total", host="h1")
        assert a is b
        assert len(reg) == 1

    def test_label_sets_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", host="h1").inc()
        reg.counter("requests_total", host="h2").inc(2)
        values = {labels["host"]: metric.value
                  for labels, metric in reg.find("requests_total")}
        assert values == {"h1": 1.0, "h2": 2.0}

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("")
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("1leading")

    def test_merged_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("lat_us", bounds=(10.0, 100.0), host="h1").observe(5)
        reg.histogram("lat_us", bounds=(10.0, 100.0), host="h2").observe(50)
        merged = reg.merged_histogram("lat_us")
        assert merged.count == 2
        assert merged.counts == [1, 1, 0]
        assert reg.merged_histogram("absent") is None

    def test_as_dict_renders_labels(self):
        reg = MetricsRegistry()
        reg.counter("x_total", host="h1").inc()
        reg.gauge("depth").set(4)
        dump = reg.as_dict()
        assert dump["x_total{host=h1}"] == 1.0
        assert dump["depth"] == 4.0

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            DEFAULT_LATENCY_BUCKETS_US)
        assert list(DEFAULT_BYTES_BUCKETS) == sorted(DEFAULT_BYTES_BUCKETS)


def _linear_bucket(bounds, value):
    """The bucket index of the original linear scan: first bound
    ``>= value``, else the overflow bucket (NaN compares false)."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


class TestHistogramBucketEdges:
    BOUNDS = (10.0, 100.0, 1000.0)

    @pytest.mark.parametrize("value", [
        10.0, 100.0, 1000.0,          # exactly on a bound: that bucket
        1000.5, 1e12, float("inf"),   # past the last bound: overflow
        float("nan"),                 # NaN: overflow
        -5.0, 0.0, 10.000001, 99.9,
    ])
    def test_matches_linear_scan(self, value):
        h = Histogram(bounds=self.BOUNDS)
        h.observe(value)
        expected = [0] * (len(self.BOUNDS) + 1)
        expected[_linear_bucket(self.BOUNDS, value)] = 1
        assert h.counts == expected
        assert h.count == 1

    def test_on_bound_past_last_and_nan(self):
        h = Histogram(bounds=self.BOUNDS)
        h.observe(100.0)
        h.observe(5000.0)
        h.observe(float("nan"))
        assert h.counts == [0, 1, 0, 2]

    def test_default_buckets_match_linear_scan(self):
        h = Histogram()
        values = [b * f for b in DEFAULT_LATENCY_BUCKETS_US
                  for f in (0.5, 1.0, 1.0000001)]
        expected = [0] * (len(DEFAULT_LATENCY_BUCKETS_US) + 1)
        for value in values:
            h.observe(value)
            expected[_linear_bucket(DEFAULT_LATENCY_BUCKETS_US, value)] += 1
        assert h.counts == expected


class TestRegistryFastPath:
    def test_kind_conflict_still_raises_after_cached_lookup(self):
        reg = MetricsRegistry()
        first = reg.counter("x", a="1")
        assert reg.counter("x", a="1") is first  # served from the cache
        with pytest.raises(ValueError):
            reg.histogram("x", a="1")
        with pytest.raises(ValueError):
            reg.gauge("x", a="1")
        assert reg.counter("x", a="1") is first

    def test_bad_name_raises_on_first_use(self):
        reg = MetricsRegistry()
        for name in ("", "bad name", "1leading"):
            with pytest.raises(ValueError):
                reg.counter(name, a="1")
            with pytest.raises(ValueError):  # nothing was cached
                reg.counter(name, a="1")
        assert len(reg) == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", host="h1", process="p1")
        b = reg.counter("x_total", process="p1", host="h1")
        assert a is b
        assert reg.counter("x_total", process="p1", host="h1") is a
        assert len(reg) == 1

    def test_histogram_bounds_bind_on_creation_only(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_us", bounds=(10.0,), host="h1")
        assert reg.histogram("lat_us", bounds=(99.0,), host="h1") is h
        assert h.bounds == (10.0,)
