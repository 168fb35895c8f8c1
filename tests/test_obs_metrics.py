"""Unit tests for :mod:`repro.obs.metrics`: instruments, registry, exports.

The registry is the export surface of the telemetry plane, so these tests
pin the wire shapes other components rely on: the flat JSON snapshot the
cluster workers piggyback, the Prometheus text rendering a ``/metrics``
endpoint would serve, and the cross-worker :func:`merge_snapshots` fold.
"""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    register_stats_gauges,
)


# ------------------------------------------------------------------ counters
def test_counter_accumulates_and_rejects_decrease():
    c = Counter("events_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError, match="cannot decrease"):
        c.inc(-1)


# -------------------------------------------------------------------- gauges
def test_gauge_set_and_callback_sources():
    g = Gauge("occupancy")
    assert g.value == 0.0
    g.set(4)
    assert g.value == 4.0
    g.set_callback(lambda: 7.0)
    assert g.value == 7.0
    g.set(1.0)  # an explicit set replaces the callback
    assert g.value == 1.0


def test_gauge_callback_exception_reads_zero():
    g = Gauge("dead_provider")

    def boom() -> float:
        raise RuntimeError("provider retired")

    g.set_callback(boom)
    assert g.value == 0.0


# ---------------------------------------------------------------- histograms
def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError, match="strictly"):
        Histogram("h", buckets=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        Histogram("h", buckets=(0.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        Histogram("h", buckets=())


def test_histogram_counts_sum_and_overflow():
    h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(105.0)
    # counts: (<=1], (1,2], (2,4], overflow
    assert h.bucket_counts() == [1, 1, 1, 1]


def test_histogram_quantile_interpolates_within_bucket():
    h = Histogram("lat", buckets=(1.0, 2.0))
    for _ in range(10):
        h.observe(1.5)  # all land in the (1, 2] bucket
    # the median target sits halfway through the bucket's count:
    # lo + (hi-lo) * (5/10) = 1.5
    assert h.quantile(0.5) == pytest.approx(1.5)
    assert h.p50 == pytest.approx(1.5)
    # the extreme quantiles stay inside the landing bucket
    assert 1.0 <= h.quantile(0.01) <= 2.0
    assert 1.0 <= h.p99 <= 2.0


def test_histogram_quantile_clamps_overflow_and_handles_empty():
    h = Histogram("lat", buckets=(1.0, 2.0))
    assert h.p50 == 0.0  # empty
    h.observe(50.0)
    assert h.p50 == 2.0  # overflow clamps to the last finite bound
    with pytest.raises(ValueError, match="outside"):
        h.quantile(1.5)


def test_default_buckets_are_strictly_increasing():
    assert all(
        a < b for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
    )
    assert DEFAULT_LATENCY_BUCKETS[0] > 0


# ------------------------------------------------------------------ registry
def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    assert reg.counter("a_total") is reg.counter("a_total")
    assert reg.histogram("lat") is reg.histogram("lat")
    assert reg.gauge("g") is reg.gauge("g")


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered as counter"):
        reg.histogram("x")


def test_registry_snapshot_shape_is_json_safe():
    reg = MetricsRegistry()
    reg.counter("req_total").inc(3)
    reg.gauge("pending").set(2)
    reg.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
    snap = reg.snapshot()
    json.dumps(snap)  # wire shape: must be JSON-serializable as-is
    assert snap["counters"] == {"req_total": 3.0}
    assert snap["gauges"] == {"pending": 2.0}
    h = snap["histograms"]["lat"]
    assert h["buckets"] == [1.0, 2.0]
    assert h["counts"] == [0, 1, 0]
    assert h["count"] == 1
    assert h["sum"] == pytest.approx(1.5)
    assert {"p50", "p90", "p99"} <= set(h)
    assert set(snap) == {"counters", "gauges", "histograms"}


def test_registry_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("req_total", help="requests served").inc(2)
    reg.gauge("pending").set(1)
    h = reg.histogram("lat", buckets=(0.5, 1.0))
    h.observe(0.2)
    h.observe(0.7)
    h.observe(9.0)
    text = reg.render_prometheus()
    assert "# HELP req_total requests served" in text
    assert "# TYPE req_total counter" in text
    assert "req_total 2" in text
    assert "# TYPE pending gauge" in text
    # histogram buckets are cumulative, with a final +Inf bucket
    assert 'lat_bucket{le="0.5"} 1' in text
    assert 'lat_bucket{le="1"} 2' in text
    assert 'lat_bucket{le="+Inf"} 3' in text
    assert "lat_sum 9.9" in text
    assert "lat_count 3" in text


def test_registry_snapshot_evaluates_callbacks_outside_its_lock():
    # A gauge callback that itself touches the registry must not deadlock.
    reg = MetricsRegistry()
    reg.gauge("reentrant", callback=lambda: float(len(reg.snapshot()["gauges"])))
    # Just evaluating it proves no self-deadlock; the inner snapshot sees
    # the same single gauge.
    assert reg.snapshot()["gauges"]["reentrant"] == 1.0


# ------------------------------------------------------------- merging
def test_merge_snapshots_sums_counters_gauges_and_histograms():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("req_total").inc(2)
    b.counter("req_total").inc(3)
    a.gauge("pending").set(1)
    b.gauge("pending").set(2)
    for reg, values in ((a, (0.2, 0.7)), (b, (0.7,))):
        h = reg.histogram("lat", buckets=(0.5, 1.0))
        for v in values:
            h.observe(v)

    merged = merge_snapshots(a.snapshot(), b.snapshot(), {})
    assert merged["counters"]["req_total"] == 5.0
    assert merged["gauges"]["pending"] == 3.0
    h = merged["histograms"]["lat"]
    assert h["counts"] == [1, 2, 0]
    assert h["count"] == 3
    assert h["sum"] == pytest.approx(1.6)
    assert 0.5 <= h["p50"] <= 1.0  # re-estimated from the merged buckets


def test_render_prometheus_snapshot_matches_live_rendering():
    # The snapshot renderer (what a gateway /metrics serves for merged
    # multi-process views) must agree with the live registry's own text
    # exposition, modulo the HELP lines a snapshot does not carry.
    reg = MetricsRegistry()
    reg.counter("req_total").inc(2)
    reg.gauge("pending").set(1)
    h = reg.histogram("lat", buckets=(0.5, 1.0))
    for v in (0.2, 0.7, 9.0):
        h.observe(v)
    from repro.obs import render_prometheus_snapshot

    text = render_prometheus_snapshot(reg.snapshot())
    live = [
        line for line in reg.render_prometheus().splitlines()
        if not line.startswith("# HELP")
    ]
    assert sorted(text.splitlines()) == sorted(live)
    # And it renders a merged view without needing any live registry.
    merged = merge_snapshots(reg.snapshot(), reg.snapshot())
    doubled = render_prometheus_snapshot(merged)
    assert "req_total 4" in doubled
    assert 'lat_bucket{le="+Inf"} 6' in doubled


def test_merge_snapshots_rejects_mismatched_bucket_layouts():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.histogram("lat", buckets=(0.5, 1.0)).observe(0.2)
    b.histogram("lat", buckets=(1.0, 2.0)).observe(0.2)
    with pytest.raises(ValueError, match="bucket layouts differ"):
        merge_snapshots(a.snapshot(), b.snapshot())


# ------------------------------------------------- stats-object gauge bridge
class _Stats:
    def __init__(self):
        self.hits = 4
        self.misses = 1


def test_register_stats_gauges_reads_live_attributes():
    reg = MetricsRegistry()
    stats = _Stats()
    register_stats_gauges(reg, "cache", stats, ("hits", "misses"))
    assert reg.snapshot()["gauges"] == {"cache_hits": 4.0, "cache_misses": 1.0}
    stats.hits = 9  # live view, not a copy at registration time
    assert reg.snapshot()["gauges"]["cache_hits"] == 9.0


def test_register_stats_gauges_holds_a_weakref():
    reg = MetricsRegistry()
    stats = _Stats()
    register_stats_gauges(reg, "cache", stats, ("hits",))
    assert reg.snapshot()["gauges"]["cache_hits"] == 4.0
    del stats  # retire the provider: the gauge decays to 0, no pinning
    assert reg.snapshot()["gauges"]["cache_hits"] == 0.0
