"""MetricsRegistry: thread-safety, bucket semantics, Prometheus exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    format_sample,
    freeze_labels,
    get_registry,
)


class TestLabels:
    def test_freeze_is_order_insensitive(self):
        assert freeze_labels({"a": 1, "b": 2}) == freeze_labels({"b": 2, "a": 1})

    def test_empty_and_none_freeze_to_the_empty_tuple(self):
        assert freeze_labels(None) == ()
        assert freeze_labels({}) == ()

    def test_values_are_stringified(self):
        assert freeze_labels({"n": 5}) == (("n", "5"),)

    def test_format_sample_escapes_quotes_and_newlines(self):
        line = format_sample("m", (("path", 'a"b\nc'),), 1)
        assert line == 'm{path="a\\"b\\nc"} 1'


class TestCounter:
    def test_counts_per_label_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc(backend="a")
        counter.inc(2, backend="a")
        counter.inc(backend="b")
        assert counter.value(backend="a") == 3
        assert counter.value(backend="b") == 1
        assert counter.value(backend="missing") == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_concurrent_hammer_lands_exactly(self):
        # N threads x M increments must land on exactly N * M: a torn
        # read-modify-write would lose increments.
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")
        threads_n, increments_m = 8, 2500

        def hammer():
            for _ in range(increments_m):
                counter.inc(worker="shared")

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="shared") == threads_n * increments_m

    def test_concurrent_histogram_hammer_lands_exactly(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        threads_n, observations_m = 8, 1000

        def hammer():
            for index in range(observations_m):
                histogram.observe(index % 3)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count() == threads_n * observations_m


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value() == 3

    def test_series_are_independent_per_label(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.inc(backend="parallel")
        gauge.inc(3, backend="broker")
        assert gauge.value(backend="parallel") == 1
        assert gauge.value(backend="broker") == 3


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        # An observation exactly on a bound lands in that bucket (le =
        # "less than or equal", the Prometheus contract).
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.1, 1.0, 10.0, 10.1):
            histogram.observe(value)
        snapshot = registry.snapshot()["latency"]
        counts = snapshot["counts"][()]
        assert counts == [1, 2, 3, 4]  # cumulative + the +Inf bucket
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(21.2)

    def test_quantiles_interpolate_within_the_bucket(self):
        histogram = MetricsRegistry().histogram("q", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            histogram.observe(value)
        # rank 4 of 8 sits at the top of the (1, 2] bucket
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        assert histogram.quantile(0.0) == pytest.approx(0.0)
        # everything beyond the last finite bound clamps to it
        histogram.observe(100.0)
        assert histogram.quantile(1.0) == pytest.approx(4.0)

    def test_quantile_none_when_empty(self):
        histogram = MetricsRegistry().histogram("empty")
        assert histogram.quantile(0.5) is None

    def test_quantile_range_validated(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(1.5)

    @pytest.mark.parametrize(
        "buckets", [(), (1.0, 1.0), (2.0, 1.0), (1.0, float("inf"))]
    )
    def test_invalid_buckets_rejected(self, buckets):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=buckets)


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("shared") is registry.counter("shared")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("taken")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("taken")

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="metric names"):
            MetricsRegistry().counter("bad-name")

    def test_collectors_feed_the_exposition(self):
        registry = MetricsRegistry()

        def collect():
            yield ("repro_store_rows", "gauge", "rows", {}, 7)

        registry.register_collector(collect)
        assert "repro_store_rows 7" in registry.render_prometheus()

    def test_process_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_prometheus_exposition_golden(self):
        # Frozen end-to-end rendering: HELP/TYPE headers, label sorting,
        # cumulative buckets with +Inf, _sum/_count, trailing newline.
        registry = MetricsRegistry()
        counter = registry.counter("repro_demo_total", "demo counter")
        counter.inc(2, backend="b")
        counter.inc(backend="a")
        gauge = registry.gauge("repro_demo_depth")
        gauge.set(1.5)
        histogram = registry.histogram(
            "repro_demo_seconds", "demo latency", buckets=(0.5, 1.0)
        )
        histogram.observe(0.25)
        histogram.observe(2.0)
        expected = "\n".join(
            [
                "# TYPE repro_demo_depth gauge",
                "repro_demo_depth 1.5",
                "# HELP repro_demo_seconds demo latency",
                "# TYPE repro_demo_seconds histogram",
                'repro_demo_seconds_bucket{le="0.5"} 1',
                'repro_demo_seconds_bucket{le="1"} 1',
                'repro_demo_seconds_bucket{le="+Inf"} 2',
                "repro_demo_seconds_sum 2.25",
                "repro_demo_seconds_count 2",
                "# HELP repro_demo_total demo counter",
                "# TYPE repro_demo_total counter",
                'repro_demo_total{backend="a"} 1',
                'repro_demo_total{backend="b"} 2',
                "",
            ]
        )
        assert registry.render_prometheus() == expected

    def test_default_latency_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS)
        )
