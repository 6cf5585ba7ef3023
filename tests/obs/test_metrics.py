"""Tests for the dependency-free metrics registry."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_labels_keyed_order_independent(self):
        c = Counter("x")
        c.inc(mode="warm", phase="sync")
        c.inc(phase="sync", mode="warm")
        assert c.value(mode="warm", phase="sync") == 2.0
        assert c.snapshot() == {"mode=warm,phase=sync": 2.0}

    def test_untouched_snapshot_is_zero(self):
        # An untouched counter is 0, not an empty label table — status
        # JSON consumers key on scalar values for unlabeled metrics.
        assert Counter("x").snapshot() == 0.0

    def test_unlabeled_snapshot_is_scalar(self):
        c = Counter("x")
        c.inc(4)
        assert c.snapshot() == 4.0

    def test_a_read_counter_snapshots_what_its_owner_counts(self):
        owner = {"rejected": 0}
        registry = MetricsRegistry()
        registry.counter("rejected", read=lambda: owner["rejected"])
        assert registry.snapshot() == {"rejected": 0.0}
        owner["rejected"] = 3
        assert registry.snapshot() == {"rejected": 3.0}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(5)
        g.inc(-3)
        assert g.value() == 12

    def test_untouched_snapshot_is_zero(self):
        assert Gauge("depth").snapshot() == 0.0


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("lat")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert h.count() == 3
        assert h.mean() == pytest.approx(0.2)

    def test_snapshot_min_max(self):
        h = Histogram("lat")
        h.observe(0.5)
        h.observe(0.1)
        snap = h.snapshot()
        assert snap["min"] == 0.1
        assert snap["max"] == 0.5
        assert snap["count"] == 2

    def test_empty_snapshot_is_zero_series(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] is None

    def test_snapshot_of_unlabelled_and_labelled_series(self):
        # The whole snapshot, key for key: what ``ExperimentResult.
        # stage_breakdown`` and the cluster status JSON are built from.
        plain, labelled = Histogram("lat"), Histogram("lat")
        for value in (0.25, 0.5, 100.0):
            plain.observe(value)
            labelled.observe(value, stage="cpu", mode="warm")
        labelled.observe(2.0, stage="queue")
        series = {"count": 3, "sum": 100.75, "min": 0.25, "max": 100.0, "mean": 100.75 / 3}
        assert plain.snapshot() == series
        assert labelled.snapshot() == {
            "mode=warm,stage=cpu": series,
            "stage=queue": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0, "mean": 2.0},
        }
        assert labelled.count(mode="warm", stage="cpu") == 3 and labelled.count() == 0
        assert Histogram("lat").snapshot() == {
            "count": 0, "sum": 0.0, "min": None, "max": None, "mean": None
        }

    def test_there_are_no_buckets_to_configure(self):
        with pytest.raises(TypeError):
            Histogram("lat", bounds=(1.0,))
        with pytest.raises(TypeError):
            MetricsRegistry().histogram("lat", bounds=(1.0,))
        assert not hasattr(Histogram, "DEFAULT_BOUNDS")


class TestMetricsRegistry:
    def test_registration_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("commits").inc(3)
        registry.gauge("round").set(7)
        registry.histogram("lat").observe(0.25)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["commits"] == 3.0
        assert snap["round"] == 7
        assert snap["lat"]["count"] == 1

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]
