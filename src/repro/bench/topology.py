"""Topology benchmark: sharded placement at fleet scale, under churn.

Two layers exercise the :mod:`repro.topology` service:

* **Scale layer** — hundreds of :class:`~repro.devices.store.
  XmlStoreDevice` stores across tens of cells, with ~a million cluster
  keys registered through the real observer hooks (synthetically: the
  keys are routed and refcounted exactly as real swap-outs would be,
  without paying for a million XML serialisations).  Measures that shard
  lookups stay O(1) as the key population grows, that no single full
  cell death can lose a cluster (every shard's holders span ≥ 2 cells),
  the wall cost of reparenting when whole cells die, and the cost of a
  rebalance/rebuild sweep.
* **Integration layer** — a small real fleet with real ingested chains:
  kill each cell in turn via the churn injector, let ``tick`` reparent
  and the scrubber re-replicate, and verify every cluster swaps back in.

``python -m repro bench topology`` writes ``BENCH_topology.json`` and
checks :func:`gates`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bench.runner import Gate
from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.faults import ChurnEvent, ChurnInjector, ChurnPlan, FaultInjector, FaultPlan, FlakyStore
from repro.resilience import ResilienceConfig


@dataclass
class TopologyBenchConfig:
    # scale layer
    cells: int = 30
    stores_per_cell: int = 10
    shards: int = 128
    keys: int = 1_000_000
    replication_factor: int = 3
    lookup_samples: int = 200_000
    churn_cells: int = 5  # cells killed+healed in the churn sweep
    # integration layer
    it_cells: int = 3
    it_stores_per_cell: int = 3
    it_shards: int = 8
    it_objects: int = 240
    it_cluster_size: int = 20
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20
    #: Seed for the per-scenario fault injectors.
    seed: int = 0

    @classmethod
    def quick(cls) -> "TopologyBenchConfig":
        """CI smoke-test sizing (a few seconds wall clock)."""
        return cls(
            cells=12,
            stores_per_cell=5,
            shards=32,
            keys=50_000,
            lookup_samples=20_000,
            churn_cells=3,
            it_objects=120,
        )


@dataclass
class ScaleResult:
    """Fleet-scale routing and churn numbers (synthetic key population)."""

    stores: int
    cells: int
    shards: int
    keys: int
    register_s: float
    #: ns per shard lookup with 1% of keys registered vs all of them —
    #: the ratio is the O(1) claim (a per-key index would scale ~100x)
    lookup_ns_small: float
    lookup_ns_full: float
    lookup_ratio: float
    #: worst case over every cell: clusters with no holder outside it
    worst_cell_lost_clusters: int
    cells_killed: int
    reparents: int
    reparent_wall_ms_mean: float
    reparent_latency_s_total: float  # simulated, from TopologyStats
    rebalance_moves: int
    rebalance_wall_ms: float
    rebuild_wall_ms: float
    rebuild_inventory_replicas: int

    @property
    def lookup_o1(self) -> bool:
        return self.lookup_ratio < 3.0

    @property
    def zero_loss_any_cell(self) -> bool:
        return self.worst_cell_lost_clusters == 0


@dataclass
class CellKillResult:
    """One integration scenario: a full cell dies mid-swap."""

    cell: str
    clusters: int
    clusters_lost: int
    reparents: int
    recovery_s: float
    replicas_repaired: int
    fully_replicated: int  # clusters back at the target factor
    swap_in_ok: int


@dataclass
class TopologyReport:
    config: TopologyBenchConfig
    scale: Optional[ScaleResult] = None
    integration: List[CellKillResult] = field(default_factory=list)
    observed: bool = False

    @property
    def zero_loss(self) -> bool:
        scale_ok = self.scale is None or self.scale.zero_loss_any_cell
        return scale_ok and all(
            result.clusters_lost == 0 for result in self.integration
        )

    @property
    def lookup_o1(self) -> bool:
        return self.scale is None or self.scale.lookup_o1

    def to_json(self) -> str:
        payload = {
            "benchmark": "topology",
            "observed": self.observed,
            "config": asdict(self.config),
            "scale": (
                {
                    **asdict(self.scale),
                    "lookup_o1": self.scale.lookup_o1,
                    "zero_loss_any_cell": self.scale.zero_loss_any_cell,
                }
                if self.scale is not None
                else None
            ),
            "integration": [asdict(result) for result in self.integration],
            "zero_loss": self.zero_loss,
            "lookup_o1": self.lookup_o1,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class _SyntheticRecord:
    """The two fields the observer hooks read from a placement record."""

    __slots__ = ("sid", "replicas")

    def __init__(self, sid: int, replicas: Tuple[str, ...]) -> None:
        self.sid = sid
        self.replicas = replicas


def _scale_fleet(config: TopologyBenchConfig):
    clock = SimulatedClock()
    space = Space("topo-bench", heap_capacity=config.heap_capacity, clock=clock)
    injector = FaultInjector(FaultPlan.empty(), clock)
    by_cell: Dict[str, List[FlakyStore]] = {}
    for cell in range(config.cells):
        cell_name = f"cell-{cell:03d}"
        members = []
        for i in range(config.stores_per_cell):
            store = FlakyStore(
                XmlStoreDevice(
                    f"c{cell:03d}s{i:02d}",
                    capacity=config.store_capacity,
                    placement_group=cell_name,
                ),
                injector,
            )
            members.append(store)
            space.manager.add_store(store)
        by_cell[cell_name] = members
    space.manager.enable_resilience(
        ResilienceConfig(
            replication_factor=config.replication_factor,
            degrade_to_local=False,
        )
    )
    topology = space.manager.enable_topology(shards=config.shards)
    return space, topology, by_cell


def _register_keys(topology, start: int, count: int) -> None:
    """Route ``count`` sids through the real observer hook."""
    holders_of = {
        record.shard_id: tuple(record.holders())
        for record in topology.shard_table.records()
    }
    for sid in range(start, start + count):
        shard_id = topology.shard_of(sid)
        topology.on_record_swap_out(
            _SyntheticRecord(sid, holders_of[shard_id])
        )


def _time_lookups(topology, keys: int, samples: int) -> float:
    """ns per full route: hash the sid, fetch the shard, list holders."""
    table = topology.shard_table
    step = max(1, keys // samples)
    sids = list(range(0, keys, step))[:samples]
    started = time.perf_counter()
    for sid in sids:
        table.record_for(sid).holders()
    elapsed = time.perf_counter() - started
    return elapsed / max(1, len(sids)) * 1e9


def _lost_by_cell(topology, shard_sid_counts: Dict[int, int]) -> int:
    """Worst case over cells: sids whose every holder lives in that cell."""
    worst = 0
    for cell_name in topology.cells():
        lost = 0
        for record in topology.shard_table.records():
            holders = record.holders()
            if holders and all(
                topology.cell_of(holder) == cell_name for holder in holders
            ):
                lost += shard_sid_counts.get(record.shard_id, 0)
        worst = max(worst, lost)
    return worst


def run_scale(config: TopologyBenchConfig) -> ScaleResult:
    space, topology, by_cell = _scale_fleet(config)

    # registration: 1% first (small-population lookup baseline), then
    # the rest, through the same hooks real swap-outs drive
    small = max(1, config.keys // 100)
    started = time.perf_counter()
    _register_keys(topology, 0, small)
    lookup_ns_small = _time_lookups(topology, small, config.lookup_samples)
    _register_keys(topology, small, config.keys - small)
    register_s = time.perf_counter() - started
    lookup_ns_full = _time_lookups(topology, config.keys, config.lookup_samples)
    ratio = lookup_ns_full / lookup_ns_small if lookup_ns_small else 1.0

    shard_sid_counts: Dict[int, int] = {}
    for sid in range(config.keys):
        shard_id = topology.shard_of(sid)
        shard_sid_counts[shard_id] = shard_sid_counts.get(shard_id, 0) + 1
    worst_lost = _lost_by_cell(topology, shard_sid_counts)

    # churn sweep: kill whole cells one at a time, time the detection +
    # reparent pass, heal, move on
    reparents = 0
    reparent_wall_s = 0.0
    killed = 0
    cell_names = sorted(by_cell)[: config.churn_cells]
    for cell_name in cell_names:
        for store in by_cell[cell_name]:
            store.kill()
        started = time.perf_counter()
        reparented = topology.tick()
        reparent_wall_s += time.perf_counter() - started
        reparents += len(reparented)
        killed += 1
        for store in by_cell[cell_name]:
            store.revive()
        topology.tick()  # cell recovers before the next kill

    # rebalance cost: permanently lose one cell, respread, count moves
    lost_cell = cell_names[0]
    for store in by_cell[lost_cell]:
        store.kill()
    topology.tick()
    before = {
        record.shard_id: set(record.holders())
        for record in topology.shard_table.records()
    }
    started = time.perf_counter()
    topology.rebalance()
    rebalance_wall_ms = (time.perf_counter() - started) * 1e3
    moves = sum(
        len(set(record.holders()) ^ before[record.shard_id])
        for record in topology.shard_table.records()
    )

    started = time.perf_counter()
    rebuild = topology.rebuild()
    rebuild_wall_ms = (time.perf_counter() - started) * 1e3

    return ScaleResult(
        stores=config.cells * config.stores_per_cell,
        cells=config.cells,
        shards=config.shards,
        keys=config.keys,
        register_s=register_s,
        lookup_ns_small=lookup_ns_small,
        lookup_ns_full=lookup_ns_full,
        lookup_ratio=ratio,
        worst_cell_lost_clusters=worst_lost,
        cells_killed=killed,
        reparents=reparents,
        reparent_wall_ms_mean=(
            reparent_wall_s / reparents * 1e3 if reparents else 0.0
        ),
        reparent_latency_s_total=topology.stats.total_reparent_latency_s,
        rebalance_moves=moves,
        rebalance_wall_ms=rebalance_wall_ms,
        rebuild_wall_ms=rebuild_wall_ms,
        rebuild_inventory_replicas=rebuild["inventory_replicas"],
    )


def run_cell_kill(
    config: TopologyBenchConfig,
    victim: int,
    *,
    observe: bool = False,
    obs_path: Optional[str] = None,
    obs_append: bool = True,
) -> CellKillResult:
    """One real-data scenario: swap out, kill cell ``victim``, recover."""
    clock = SimulatedClock()
    space = Space(
        f"topo-it-{victim}", heap_capacity=config.heap_capacity, clock=clock
    )
    stores: Dict[str, FlakyStore] = {}
    for cell in range(config.it_cells):
        for i in range(config.it_stores_per_cell):
            store = FlakyStore(
                XmlStoreDevice(
                    f"c{cell}s{i}",
                    capacity=config.store_capacity,
                    placement_group=f"cell-{cell}",
                    link=bluetooth_link(clock),
                ),
                FaultInjector(
                    FaultPlan.empty(seed=config.seed * 1000 + victim), clock
                ),
            )
            stores[store.device_id] = store
            space.manager.add_store(store)
    space.manager.enable_resilience(
        ResilienceConfig(
            replication_factor=config.replication_factor,
            degrade_to_local=False,
            scrub_interval_s=1.0,
        )
    )
    topology = space.manager.enable_topology(shards=config.it_shards)
    obs = space.manager.enable_observability() if observe else None

    space.ingest(
        build_list(config.it_objects),
        cluster_size=config.it_cluster_size,
        root_name="head",
    )
    sids = [
        sid
        for sid, cluster in sorted(space.clusters().items())
        if sid != 0 and cluster.swappable() and cluster.oids
    ]
    for sid in sids:
        space.manager.swap_out(sid)

    cell_name = f"cell-{victim}"
    plan = ChurnPlan(
        events=(ChurnEvent(0.0, "", "kill_cell", cell=cell_name, lose_data=True),)
    )
    ChurnInjector(plan, clock).apply(stores)
    reparents_before = topology.stats.reparents
    repairs_before = topology.stats.repair_replicas
    started = clock.now()
    # the fleet notices the dead cell: detach strikes its replicas from
    # the ledger (kill alone leaves them ACTIVE-but-unreachable) and
    # lets tick + scrub do the real recovery work
    for store in list(stores.values()):
        if store.placement_group == cell_name:
            space.manager.detach_store(store, dead=True)
    topology.tick()
    space.manager.resilience.scrubber.run_until_stable()
    recovery_s = clock.now() - started

    placement = space.manager.resilience.placement
    lost = sum(
        1 for record in placement.records().values() if record.live_count == 0
    )
    full = sum(
        1
        for record in placement.records().values()
        if record.live_count >= config.replication_factor
    )
    ok = 0
    for sid in sids:
        try:
            space.manager.swap_in(sid)
            ok += 1
        except Exception:
            pass
    if obs is not None:
        obs.refresh()
        if obs_path is not None:
            obs.export_jsonl(
                obs_path, label=f"topology:cell={cell_name}", append=obs_append
            )
    return CellKillResult(
        cell=cell_name,
        clusters=len(sids),
        clusters_lost=lost,
        reparents=topology.stats.reparents - reparents_before,
        recovery_s=recovery_s,
        replicas_repaired=topology.stats.repair_replicas - repairs_before,
        fully_replicated=full,
        swap_in_ok=ok,
    )


def run_topology_bench(
    config: TopologyBenchConfig | None = None,
    *,
    observe: bool = False,
    obs_path: Optional[str] = None,
) -> TopologyReport:
    config = config if config is not None else TopologyBenchConfig()
    report = TopologyReport(config=config, observed=observe)
    report.scale = run_scale(config)
    for victim in range(config.it_cells):
        report.integration.append(
            run_cell_kill(
                config,
                victim,
                observe=observe,
                obs_path=obs_path,
                obs_append=victim > 0,
            )
        )
    return report


def format_table(report: TopologyReport) -> str:
    lines: List[str] = []
    scale = report.scale
    if scale is not None:
        lines.append(
            f"scale: {scale.stores} stores / {scale.cells} cells / "
            f"{scale.shards} shards / {scale.keys} keys "
            f"(registered in {scale.register_s:.2f}s)"
        )
        lines.append(
            f"  lookup: {scale.lookup_ns_small:.0f} ns @1% -> "
            f"{scale.lookup_ns_full:.0f} ns @100% "
            f"(x{scale.lookup_ratio:.2f}, O(1): "
            f"{'yes' if scale.lookup_o1 else 'NO'})"
        )
        lines.append(
            f"  any-cell loss: {scale.worst_cell_lost_clusters} clusters "
            f"(zero-loss: {'yes' if scale.zero_loss_any_cell else 'NO'})"
        )
        lines.append(
            f"  churn: {scale.cells_killed} cells killed, "
            f"{scale.reparents} reparents @ "
            f"{scale.reparent_wall_ms_mean:.2f} ms mean; rebalance "
            f"{scale.rebalance_moves} moves in "
            f"{scale.rebalance_wall_ms:.1f} ms; rebuild "
            f"{scale.rebuild_wall_ms:.1f} ms"
        )
    header = (
        f"{'cell':>8} {'clusters':>9} {'lost':>5} {'reparents':>10} "
        f"{'recovery s':>11} {'repairs':>8} {'full rf':>8} {'swap-in ok':>11}"
    )
    lines.extend([header, "-" * len(header)])
    for result in report.integration:
        lines.append(
            f"{result.cell:>8} {result.clusters:>9} {result.clusters_lost:>5} "
            f"{result.reparents:>10} {result.recovery_s:>11.3f} "
            f"{result.replicas_repaired:>8} {result.fully_replicated:>8} "
            f"{result.swap_in_ok:>11}"
        )
    lines.append(
        "zero loss on any full cell death: "
        + ("yes" if report.zero_loss else "NO")
    )
    return "\n".join(lines)


def gates(payload: Dict[str, Any]) -> Iterator[Gate]:
    """The acceptance bars on a ``to_json`` payload."""
    # the headline claims: a full cell death loses nothing, and shard
    # lookups stay O(1) as the key population grows
    yield Gate("zero_loss", "==", True)
    yield Gate("lookup_o1", "==", True)
    yield Gate("scale.lookup_o1", "==", True)
    # every shard's holders span cells: no single cell owns any cluster
    yield Gate("scale.worst_cell_lost_clusters", "==", 0)
    # the churn sweep actually reparented, and cheaply, and rebalanced
    yield Gate("scale.reparents", ">", 0)
    yield Gate("scale.reparent_wall_ms_mean", "<", 100.0)
    yield Gate("scale.rebalance_moves", ">", 0)
    # real-data layer: every cell death recovered with nothing lost and
    # was re-replicated back to full rf (repair traffic is not free)
    integration = payload["integration"]
    yield Gate("config.it_cells", "==", len(integration))  # one run per cell
    for index, result in enumerate(integration):
        at = f"integration.{index}"
        yield Gate(f"{at}.clusters_lost", "==", 0)
        yield Gate(f"{at}.swap_in_ok", "==", result["clusters"])
        yield Gate(f"{at}.reparents", ">", 0)
        yield Gate(f"{at}.replicas_repaired", ">", 0)
        yield Gate(f"{at}.fully_replicated", "==", result["clusters"])
        yield Gate(f"{at}.recovery_s", ">", 0.0)
