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
    assert telemetry.stats.swap_outs == 1


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
    assert telemetry.stats.mirror_writes == 1
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
    from_telemetry = counter_snapshot(snapshot(space).stats)
    # the snapshot carries a copy of the manager's counters
    assert from_telemetry == from_stats
    assert from_telemetry["swap.out.count"] == 1


def test_every_manager_counter_declares_a_unique_metric():
    from dataclasses import fields

    from repro.core.manager import ManagerStats
    from repro.stats import COUNTER_NAMES

    declared = {
        field.name: field.metadata.get("metric")
        for field in fields(ManagerStats)
    }
    assert None not in declared.values()
    assert len(set(declared.values())) == len(declared)
    assert COUNTER_NAMES == {
        metric: name for name, metric in declared.items()
    }


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


# -- the full report, every optional line printed ----------------------------


def _space_with_every_counter_set():
    """A small fixed space whose every ``ManagerStats`` counter holds a
    distinct non-zero value (101, 102, ... by sorted field name)."""
    from dataclasses import fields

    space = make_space("report")
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    names = sorted(field.name for field in fields(space.manager.stats))
    for value, name in enumerate(names, start=101):
        setattr(space.manager.stats, name, value)
    return space


FULL_REPORT = """\
space 'report': heap 216/1048576 (0%, peak 400)
  objects: 5 resident, 5 swapped; proxies: 2; roots: 1
  swaps: 146 out / 145 in / 113 dropped; shipped 102 B, restored 101 B; \
mirrors: 132 writes, 131 failovers
  resilience: 141 retries, 115 failovers, 106 circuit-opens, 110 degraded, \
125 journal recoveries
  durability: 143 scrub ticks, 138 repaired (142 B), 137 quarantined, \
140 re-promoted, 135 orphans collected
  fast path: 119 no-ops, 120 re-ships, 147 cached reloads; 114 encodes, \
cache 0 B
  delta: 118 ships, 117 fallbacks, 116 compactions; shipped 112 B, saved 111 B
  codec: 108 binary ships, 107 binary fetches, 109 fallbacks to XML
  ladder: 130 escalations / 128 de-escalations; 127 compress-local, \
129 drop-clean, 133 OOM kills (134 foreground)
  sc-0 (roots)   resident     0 obj        0 B       0 crossings  epoch 0
  sc-1           resident     5 obj      200 B       0 crossings  epoch 0
  sc-2           swapped      5 obj        0 B       0 crossings  epoch 1 \
@ report-store"""


def test_full_report_prints_every_line():
    text = format_report(snapshot(_space_with_every_counter_set()))
    assert text == FULL_REPORT


def test_snapshot_counters_are_a_copy():
    space = _space_with_every_counter_set()
    telemetry = snapshot(space)
    space.swap_out(1)
    assert space.manager.stats.swap_outs == 147
    assert telemetry.stats.swap_outs == 146
