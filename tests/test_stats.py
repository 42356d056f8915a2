"""Telemetry snapshots."""

from repro.stats import format_report, snapshot
from tests.helpers import build_chain, chain_values, make_space


def test_snapshot_basic_counts(space):
    handle = space.ingest(build_chain(20), cluster_size=5, root_name="h")
    telemetry = snapshot(space)
    assert telemetry.resident_objects == 20
    assert telemetry.swapped_objects == 0
    assert telemetry.roots == 1
    assert len(telemetry.clusters) == 5  # roots + 4
    assert telemetry.heap_used == space.heap.used


def test_snapshot_after_swap(space):
    handle = space.ingest(build_chain(20), cluster_size=5, root_name="h")
    space.swap_out(2)
    telemetry = snapshot(space)
    assert telemetry.swapped_objects == 5
    assert telemetry.resident_objects == 15
    swapped = telemetry.swapped_clusters()
    assert len(swapped) == 1
    assert swapped[0].device_ids  # bound to a store
    assert telemetry.swap_outs == 1


def test_cluster_footprints_sum_to_heap(space):
    space.ingest(build_chain(20), cluster_size=5, root_name="h")
    telemetry = snapshot(space)
    assert (
        sum(record.footprint_bytes for record in telemetry.clusters)
        == telemetry.heap_used
    )


def test_crossings_reported(space):
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    chain_values(handle)
    telemetry = snapshot(space)
    by_sid = {record.sid: record for record in telemetry.clusters}
    assert by_sid[1].crossings > 0


def test_format_report(space):
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    text = format_report(snapshot(space))
    assert "sc-0 (roots)" in text
    assert "swapped" in text
    assert "1 out" in text


def test_mirror_counters_surface(space):
    from repro.devices import InMemoryStore

    space.manager.add_store(InMemoryStore("mirror"))
    space.manager.replication_factor = 2
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    telemetry = snapshot(space)
    assert telemetry.mirror_writes == 1
    assert "mirrors" in format_report(telemetry)


# -- unified counter naming (observability satellite) ------------------------


def test_counter_snapshot_from_manager_stats(space):
    from repro.stats import COUNTER_NAMES, counter_snapshot

    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    counters = counter_snapshot(space.manager.stats)
    assert counters["swap.out.count"] == 1
    assert counters["swap.out.bytes"] > 0
    assert counters["swap.in.count"] == 0
    # ManagerStats carries every unified counter
    assert set(counters) == set(COUNTER_NAMES)


def test_counter_snapshot_from_telemetry(space):
    from repro.stats import counter_snapshot

    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    from_stats = counter_snapshot(space.manager.stats)
    from_telemetry = counter_snapshot(snapshot(space))
    # the two sources agree wherever the telemetry carries the counter
    assert from_telemetry == from_stats
    assert from_telemetry["swap.out.count"] == 1


def test_every_counter_is_a_field_of_both_sources():
    from dataclasses import fields

    from repro.core.manager import ManagerStats
    from repro.stats import COUNTER_NAMES, SpaceTelemetry

    for source in (ManagerStats, SpaceTelemetry):
        names = {field.name for field in fields(source)}
        missing = set(COUNTER_NAMES.values()) - names
        assert not missing, f"{source.__name__} lacks {sorted(missing)}"


def test_counter_snapshot_passes_mappings_through():
    from repro.stats import counter_snapshot

    source = {"swap.out.count": 3}
    copied = counter_snapshot(source)
    assert copied == source
    assert copied is not source


def test_counter_diff_reports_only_changes(space):
    from repro.stats import counter_diff, counter_snapshot

    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    before = counter_snapshot(space.manager.stats)
    space.swap_out(2)
    deltas = counter_diff(before, space.manager.stats)
    assert deltas["swap.out.count"] == 1
    assert deltas["swap.out.bytes"] > 0
    assert "swap.in.count" not in deltas  # zero deltas omitted
    chain_values(handle)  # forces the reload
    deltas = counter_diff(before, space.manager.stats)
    assert deltas["swap.in.count"] == 1


def test_counter_diff_empty_when_nothing_happened(space):
    from repro.stats import counter_diff

    assert counter_diff(space.manager.stats, space.manager.stats) == {}
