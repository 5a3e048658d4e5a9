"""Metric types, registry snapshot/diff/absorb, exposition, worker stats."""
from __future__ import annotations

import pytest

from repro.obs.metrics import (
    ITERATIONS_BUCKETS,
    MetricsRegistry,
    effective_cores,
    merge_worker_stats,
    note_solve_block,
    record_worker_block,
    worker_stats_snapshot,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestMetricTypes:
    def test_counter_sums_and_rejects_negative(self, registry):
        c = registry.counter("hits", "hit count")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc(0.5)
        assert g.value() == 3.5

    def test_labels_partition_series(self, registry):
        c = registry.counter("reqs", labelnames=("path",))
        c.inc(path="/a")
        c.inc(2, path="/b")
        assert c.value(path="/a") == 1
        assert c.value(path="/b") == 2

    def test_wrong_label_set_raises(self, registry):
        c = registry.counter("reqs", labelnames=("path",))
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(verb="GET")

    def test_histogram_cumulative_buckets(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot_of()
        assert snap["buckets"] == [1, 2, 1, 1]  # per-bucket, +Inf last
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_registry_get_or_create_is_idempotent(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_label_mismatch_raises(self, registry):
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("x", labelnames=("b",))

    def test_effective_cores_positive(self):
        assert effective_cores() >= 1


class TestSnapshotDiffAbsorb:
    def test_diff_subtracts_counters_and_histograms(self, registry):
        registry.counter("c").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        before = registry.snapshot()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(5.0)
        registry.gauge("g").set(7)
        delta = registry.diff(before)
        assert delta["c"]["values"]["[]"] == 2
        assert delta["h"]["values"]["[]"]["count"] == 1
        assert delta["h"]["values"]["[]"]["buckets"] == [0, 1]
        assert delta["g"]["values"]["[]"] == 7

    def test_unchanged_series_are_dropped_from_diff(self, registry):
        registry.counter("c").inc(3)
        before = registry.snapshot()
        assert registry.diff(before) == {}

    def test_absorb_round_trip(self, registry):
        worker = MetricsRegistry()
        worker.counter("pts", "points", ("engine",)).inc(4, engine="batch")
        worker.histogram("sec", buckets=(1.0, 10.0)).observe(2.0)
        worker.gauge("busy").set(0.5)
        registry.counter("pts", "points", ("engine",)).inc(1, engine="batch")
        registry.absorb(worker.diff({}))
        assert registry.get("pts").value(engine="batch") == 5
        assert registry.get("sec").snapshot_of()["count"] == 1
        assert registry.get("busy").value() == 0.5

    def test_absorb_rejects_bucket_layout_mismatch(self, registry):
        other = MetricsRegistry()
        other.histogram("h", buckets=(1.0, 2.0, 3.0)).observe(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket layout"):
            registry.absorb(other.snapshot())

    def test_absorb_none_is_noop(self, registry):
        registry.absorb(None)
        assert registry.snapshot() == {}


class TestPrometheusExposition:
    def test_render_counter_and_gauge(self, registry):
        registry.counter("repro_points_total", "points").inc(42)
        registry.gauge("repro_depth", "depth", ("q",)).set(1.5, q="main")
        text = registry.render_prometheus()
        assert "# HELP repro_points_total points\n" in text
        assert "# TYPE repro_points_total counter\n" in text
        assert "repro_points_total 42\n" in text
        assert 'repro_depth{q="main"} 1.5\n' in text

    def test_render_histogram_cumulative(self, registry):
        h = registry.histogram("repro_sec", "seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = registry.render_prometheus()
        assert 'repro_sec_bucket{le="0.1"} 1\n' in text
        assert 'repro_sec_bucket{le="1.0"} 2\n' in text
        assert 'repro_sec_bucket{le="+Inf"} 3\n' in text
        assert "repro_sec_sum 5.55" in text
        assert "repro_sec_count 3\n" in text

    def test_label_values_are_escaped(self, registry):
        registry.counter("c", labelnames=("p",)).inc(p='he said "hi"\n')
        text = registry.render_prometheus()
        assert r'p="he said \"hi\"\n"' in text


class TestWorkerStatsPath:
    def test_merge_worker_stats_sums_and_adds(self):
        into = {"9001": {"blocks": 1, "points": 4, "busy_seconds": 0.5}}
        merge_worker_stats(into, {
            "9001": {"blocks": 2, "points": 8, "busy_seconds": 0.25},
            "9002": {"blocks": 1, "points": 4, "busy_seconds": 0.125},
        })
        assert into["9001"] == {"blocks": 3, "points": 12, "busy_seconds": 0.75}
        assert into["9002"]["points"] == 4

    def test_merge_none_is_noop(self):
        into = {}
        assert merge_worker_stats(into, None) is into
        assert into == {}

    def test_record_and_snapshot_round_trip(self, registry):
        record_worker_block(9001, 4, 0.5, registry=registry)
        record_worker_block(9001, 4, 0.25, registry=registry)
        record_worker_block(9002, 8, 0.125, registry=registry)
        snap = worker_stats_snapshot(registry=registry)
        assert snap["9001"] == {"blocks": 2, "points": 8, "busy_seconds": 0.75}
        assert snap["9002"] == {"blocks": 1, "points": 8, "busy_seconds": 0.125}

    def test_snapshot_of_empty_registry(self, registry):
        assert worker_stats_snapshot(registry=registry) == {}


class TestNoteSolveBlock:
    def test_core_counters(self, registry):
        note_solve_block(
            points=4, seconds=0.2, iterations=120, product_rows=126, product_edges=5_000,
            direct_solves=1,
            unconverged=2, iteration_counts=[10, 30, 40, 40],
            engine="batch", registry=registry,
        )
        assert registry.get("repro_points_evaluated_total").value() == 4
        assert registry.get("repro_solve_iterations_total").value() == 120
        assert registry.get("repro_product_rows_total").value(engine="batch") == 126
        assert registry.get("repro_product_edges_total").value(engine="batch") == 5_000
        assert registry.get("repro_direct_solves_total").value() == 1
        assert registry.get("repro_unconverged_points_total").value() == 2
        assert registry.get("repro_block_seconds").snapshot_of()["count"] == 1
        assert registry.get("repro_solve_blocks_total").value(engine="batch") == 1
        iters = registry.get("repro_iterations_per_s_point")
        assert iters.bounds == tuple(ITERATIONS_BUCKETS)
        assert iters.snapshot_of()["count"] == 4

    def test_optional_series_stay_absent(self, registry):
        note_solve_block(points=2, seconds=0.1, registry=registry)
        assert registry.get("repro_direct_solves_total") is None
        assert registry.get("repro_unconverged_points_total") is None
