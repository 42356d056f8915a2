"""Telemetry: one-call snapshots of a space's middleware state.

Collects what operators and experiments keep reaching for — heap usage,
per-swap-cluster residency/size/recency, proxy population, manager
counters — into a plain dataclass, with a formatted report for humans.
Everything is read-only and cheap; nothing here touches the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.ids import ROOT_SID


def metric(name: str, default: float = 0) -> Any:
    """A stats field exported under the dot-namespaced metric ``name``."""
    return field(default=default, metadata={"metric": name})


def metric_fields(cls: type) -> Tuple[Any, ...]:
    """The fields of stats class ``cls`` declared with :func:`metric`."""
    return tuple(spec for spec in fields(cls) if "metric" in spec.metadata)


@dataclass
class ManagerStats:
    """The swapping manager's counters, each declared once with its
    metric name; every other view of them is derived from here."""

    swap_outs: int = metric("swap.out.count")
    swap_ins: int = metric("swap.in.count")
    drops: int = metric("swap.drop.count")
    bytes_shipped: int = metric("swap.out.bytes")
    bytes_restored: int = metric("swap.in.bytes")
    replicated_clusters: int = metric("replication.cluster.count")
    mirror_writes: int = metric("swap.mirror.writes")
    mirror_failovers: int = metric("swap.mirror.failovers")
    # -- resilience counters (all zero while resilience is disabled) --
    retries: int = metric("resilience.retry.count")
    failovers: int = metric("resilience.failover.count")
    circuit_opens: int = metric("resilience.circuit.opens")
    circuit_closes: int = metric("resilience.circuit.closes")
    degraded_swaps: int = metric("resilience.degraded.count")
    journal_recoveries: int = metric("resilience.journal.recoveries")
    # -- durability counters (placement / scrub; zero while disabled) --
    replicas_repaired: int = metric("durability.replica.repaired")
    replicas_quarantined: int = metric("durability.replica.quarantined")
    scrub_ticks: int = metric("durability.scrub.ticks")
    scrub_bytes_repaired: int = metric("durability.scrub.bytes_repaired")
    orphans_collected: int = metric("durability.orphans.collected")
    repromotions: int = metric("durability.repromotions")
    journal_truncated: int = metric("resilience.journal.truncated")
    placement_recoveries: int = metric("durability.placement.recoveries")
    # -- fast-path counters (all zero while the fast path is disabled) --
    encode_calls: int = metric("fastpath.encode.count")
    fastpath_noops: int = metric("fastpath.noop.count")
    fastpath_reships: int = metric("fastpath.reship.count")
    swapin_cache_hits: int = metric("fastpath.swapin.cache_hits")
    # -- wire-codec counters (zero unless ``codec="binary"`` is on) --
    codec_binary_ships: int = metric("fastpath.codec.binary_ships")
    codec_binary_fetches: int = metric("fastpath.codec.binary_fetches")
    codec_fallbacks: int = metric("fastpath.codec.fallbacks")
    # -- delta swap counters (all zero while ``config.delta`` is off) --
    fastpath_delta_ships: int = metric("fastpath.delta.ships")
    fastpath_delta_fallbacks: int = metric("fastpath.delta.fallbacks")
    fastpath_delta_compactions: int = metric("fastpath.delta.compactions")
    delta_bytes_shipped: int = metric("fastpath.delta.bytes_shipped")
    delta_bytes_saved: int = metric("fastpath.delta.bytes_saved")
    # -- degrade-ladder counters (all zero while the ladder is off) --
    ladder_escalations: int = metric("policy.ladder.escalations")
    ladder_deescalations: int = metric("policy.ladder.deescalations")
    ladder_compress_local: int = metric("policy.ladder.compress_local")
    ladder_drop_clean: int = metric("policy.ladder.drop_clean")
    oom_kills: int = metric("policy.oom.kills")
    oom_kills_foreground: int = metric("policy.oom.kills_foreground")
    # -- topology counters (all zero while topology is disabled) --
    shard_reparents: int = metric("topology.reparent.count")
    cell_outages: int = metric("topology.cell.outages")
    cell_recoveries: int = metric("topology.cell.recoveries")
    topology_rebuilds: int = metric("topology.rebuilds")
    # -- fleet/tenancy counters (all zero while no tenant is bound) --
    fleet_admission_denials: int = metric("fleet.admission.denials")
    fleet_reclaim_evictions: int = metric("fleet.reclaim.evictions")
    fleet_reclaim_bytes: int = metric("fleet.reclaim.bytes")
    fleet_config_updates: int = metric("fleet.config.updates")
    tenant_pressure_bumps: int = metric("tenant.pressure.bumps")


#: Dot-namespaced metric name -> :class:`ManagerStats` attribute.
#: ``repro.obs`` exports the counters under these names, so greppable
#: counters and exported metrics agree.
COUNTER_NAMES: Dict[str, str] = {
    spec.metadata["metric"]: spec.name for spec in metric_fields(ManagerStats)
}

#: A counter source: live (or copied) manager stats, or an
#: already-extracted name->value mapping.
CounterSource = Union[ManagerStats, Mapping[str, int]]


def counter_snapshot(source: CounterSource) -> Dict[str, int]:
    """The source's counters under their unified dot-namespaced names.

    Accepts a :class:`ManagerStats` or a mapping produced by an earlier
    call (returned unchanged, copied)."""
    if isinstance(source, Mapping):
        return dict(source)
    return {
        name: getattr(source, attribute)
        for name, attribute in COUNTER_NAMES.items()
    }


def counter_diff(
    before: CounterSource, after: CounterSource
) -> Dict[str, int]:
    """Per-counter deltas between two snapshots (zero deltas omitted).

    Lets tests and benches assert *what an operation did* instead of
    absolute totals: ``counter_diff(a, b) == {"swap.out.count": 1}``."""
    before_values = counter_snapshot(before)
    after_values = counter_snapshot(after)
    deltas: Dict[str, int] = {}
    for name in set(before_values) | set(after_values):
        delta = after_values.get(name, 0) - before_values.get(name, 0)
        if delta:
            deltas[name] = delta
    return deltas


@dataclass(frozen=True)
class ClusterTelemetry:
    sid: int
    state: str
    objects: int
    footprint_bytes: int
    crossings: int
    last_crossing_tick: int
    epoch: int
    pins: int
    swap_outs: int
    swap_ins: int
    device_ids: tuple


@dataclass(frozen=True)
class SpaceTelemetry:
    space: str
    heap_used: int
    heap_capacity: int
    heap_ratio: float
    heap_peak: int
    resident_objects: int
    swapped_objects: int
    live_proxies: int
    roots: int
    tick: int
    clusters: tuple  # of ClusterTelemetry
    #: the manager's counters, copied at snapshot time
    stats: ManagerStats
    payload_cache_bytes: int = 0

    def resident_clusters(self) -> List[ClusterTelemetry]:
        return [record for record in self.clusters if record.state == "resident"]

    def swapped_clusters(self) -> List[ClusterTelemetry]:
        return [record for record in self.clusters if record.state == "swapped"]


def snapshot(space: Any) -> SpaceTelemetry:
    """Collect a consistent telemetry snapshot of ``space``."""
    manager = space.manager
    heap = space.heap
    cluster_records: List[ClusterTelemetry] = []
    swapped_objects = 0
    for sid in sorted(space._clusters):
        cluster = space._clusters[sid]
        footprint = sum(
            heap.size_of(oid) for oid in cluster.oids if heap.holds(oid)
        )
        if cluster.is_swapped:
            swapped_objects += len(cluster.oids)
        cluster_records.append(
            ClusterTelemetry(
                sid=sid,
                state=cluster.state.value,
                objects=len(cluster.oids),
                footprint_bytes=footprint,
                crossings=cluster.crossings,
                last_crossing_tick=cluster.last_crossing_tick,
                epoch=cluster.epoch,
                pins=cluster.pins,
                swap_outs=cluster.swap_out_count,
                swap_ins=cluster.swap_in_count,
                device_ids=tuple(
                    holder.device_id for holder in manager.bindings_for(sid)
                ),
            )
        )
    return SpaceTelemetry(
        space=space.name,
        heap_used=heap.used,
        heap_capacity=heap.capacity,
        heap_ratio=heap.ratio,
        heap_peak=heap.stats().peak_used,
        resident_objects=space.object_count(),
        swapped_objects=swapped_objects,
        live_proxies=space.live_proxy_count(),
        roots=len(space.root_names()),
        tick=space._tick,
        clusters=tuple(cluster_records),
        stats=replace(manager.stats),
        payload_cache_bytes=(
            manager.fastpath.cache.used_bytes
            if getattr(manager, "fastpath", None) is not None
            else 0
        ),
    )


def format_report(telemetry: SpaceTelemetry) -> str:
    """A human-readable multi-line report."""
    stats = telemetry.stats
    lines = [
        f"space {telemetry.space!r}: heap {telemetry.heap_used}/"
        f"{telemetry.heap_capacity} ({telemetry.heap_ratio:.0%}, "
        f"peak {telemetry.heap_peak})",
        f"  objects: {telemetry.resident_objects} resident, "
        f"{telemetry.swapped_objects} swapped; proxies: "
        f"{telemetry.live_proxies}; roots: {telemetry.roots}",
        f"  swaps: {stats.swap_outs} out / {stats.swap_ins} in / "
        f"{stats.drops} dropped; shipped {stats.bytes_shipped} B, "
        f"restored {stats.bytes_restored} B"
        + (
            f"; mirrors: {stats.mirror_writes} writes, "
            f"{stats.mirror_failovers} failovers"
            if stats.mirror_writes or stats.mirror_failovers
            else ""
        ),
    ]
    if (
        stats.retries
        or stats.failovers
        or stats.circuit_opens
        or stats.degraded_swaps
        or stats.journal_recoveries
    ):
        lines.append(
            f"  resilience: {stats.retries} retries, "
            f"{stats.failovers} failovers, "
            f"{stats.circuit_opens} circuit-opens, "
            f"{stats.degraded_swaps} degraded, "
            f"{stats.journal_recoveries} journal recoveries"
        )
    if (
        stats.scrub_ticks
        or stats.replicas_repaired
        or stats.replicas_quarantined
        or stats.repromotions
        or stats.orphans_collected
    ):
        lines.append(
            f"  durability: {stats.scrub_ticks} scrub ticks, "
            f"{stats.replicas_repaired} repaired "
            f"({stats.scrub_bytes_repaired} B), "
            f"{stats.replicas_quarantined} quarantined, "
            f"{stats.repromotions} re-promoted, "
            f"{stats.orphans_collected} orphans collected"
        )
    if (
        stats.fastpath_noops
        or stats.fastpath_reships
        or stats.swapin_cache_hits
        or telemetry.payload_cache_bytes
    ):
        lines.append(
            f"  fast path: {stats.fastpath_noops} no-ops, "
            f"{stats.fastpath_reships} re-ships, "
            f"{stats.swapin_cache_hits} cached reloads; "
            f"{stats.encode_calls} encodes, "
            f"cache {telemetry.payload_cache_bytes} B"
        )
    if stats.fastpath_delta_ships or stats.fastpath_delta_compactions:
        lines.append(
            f"  delta: {stats.fastpath_delta_ships} ships, "
            f"{stats.fastpath_delta_fallbacks} fallbacks, "
            f"{stats.fastpath_delta_compactions} compactions; "
            f"shipped {stats.delta_bytes_shipped} B, "
            f"saved {stats.delta_bytes_saved} B"
        )
    if stats.codec_binary_ships or stats.codec_fallbacks:
        lines.append(
            f"  codec: {stats.codec_binary_ships} binary ships, "
            f"{stats.codec_binary_fetches} binary fetches, "
            f"{stats.codec_fallbacks} fallbacks to XML"
        )
    if (
        stats.ladder_escalations
        or stats.ladder_compress_local
        or stats.ladder_drop_clean
        or stats.oom_kills
    ):
        lines.append(
            f"  ladder: {stats.ladder_escalations} escalations / "
            f"{stats.ladder_deescalations} de-escalations; "
            f"{stats.ladder_compress_local} compress-local, "
            f"{stats.ladder_drop_clean} drop-clean, "
            f"{stats.oom_kills} OOM kills "
            f"({stats.oom_kills_foreground} foreground)"
        )
    for record in telemetry.clusters:
        label = "sc-0 (roots)" if record.sid == ROOT_SID else f"sc-{record.sid}"
        holders = f" @ {','.join(record.device_ids)}" if record.device_ids else ""
        lines.append(
            f"  {label:<14} {record.state:<8} {record.objects:>5} obj "
            f"{record.footprint_bytes:>8} B  {record.crossings:>6} crossings"
            f"  epoch {record.epoch}{holders}"
        )
    return "\n".join(lines)
