"""The metrics registry: counters, gauges, fixed-bucket histograms."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from tests.helpers import build_chain, chain_values, make_space


def test_counter_increments():
    counter = Counter("swap.out.count")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_absorbed_counters_follow_a_replaced_scheduler():
    # a fresh scheduler starts from zeroed stats: the absorbed series
    # must mirror the live count (a drop reads as a counter reset), not
    # keep the old scheduler's total
    space = make_space("stale")
    handle = space.ingest(build_chain(40), cluster_size=5, root_name="h")
    obs = space.manager.enable_observability()
    sched = space.manager.enable_async_scheduler(channels=2, prefetch=True)
    for _ in range(3):
        for sid, cluster in sorted(space._clusters.items()):
            if cluster.swappable() and cluster.oids:
                space.manager.swap_out(sid)
        chain_values(handle)
    obs.refresh()
    issued = obs.metrics.counter("sched.ops.issued")
    assert issued.value == sched.stats.ops_issued == 96
    sched = space.manager.enable_async_scheduler(channels=2, prefetch=True)
    space.manager.swap_out(2)
    chain_values(handle)
    obs.refresh()
    assert issued.value == sched.stats.ops_issued == 4


def test_gauge_moves_both_ways():
    gauge = Gauge("heap.used.bytes")
    gauge.set(100)
    gauge.inc(20)
    gauge.dec(50)
    assert gauge.value == 70


def test_histogram_bucketing():
    histogram = Histogram("latency", (0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    assert histogram.counts == [1, 2, 1, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(56.05)


def test_histogram_boundary_lands_in_bucket():
    # le-semantics: an observation equal to a bound counts in that bucket
    histogram = Histogram("h", (1.0, 2.0))
    histogram.observe(1.0)
    assert histogram.counts == [1, 0, 0]


def test_histogram_cumulative_shape():
    histogram = Histogram("h", (1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(1.5)
    histogram.observe(99.0)
    rows = histogram.cumulative()
    assert rows == [(1.0, 1), (2.0, 2), (float("inf"), 3)]


def test_histogram_sorts_bounds():
    histogram = Histogram("h", (10.0, 1.0, 5.0))
    assert histogram.bounds == (1.0, 5.0, 10.0)


def test_histogram_needs_bounds():
    with pytest.raises(ValueError):
        Histogram("h", ())


def test_registry_create_or_get():
    registry = MetricsRegistry()
    first = registry.counter("a")
    assert registry.counter("a") is first


def test_registry_type_conflict():
    registry = MetricsRegistry()
    registry.counter("a")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("a")


def test_registry_histogram_default_bounds():
    registry = MetricsRegistry()
    assert registry.histogram("h").bounds == tuple(LATENCY_BUCKETS_S)


def test_registry_all_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert [metric.name for metric in registry.all()] == ["a", "b"]


def test_snapshot_round_trips_values():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h", (1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["c"]["value"] == 3
    assert snap["g"]["value"] == 1.5
    assert snap["h"]["counts"] == [1, 0]
