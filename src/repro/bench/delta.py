"""Delta swap-out benchmark: object-granular deltas + pipelined fan-out.

Measures what delta shipping (:mod:`repro.wire.delta`) and the
multi-channel transfer scheduler (:mod:`repro.comm.pipeline`) buy on a
skewed-write workload — the paper's common case where a working set
mutates a small fraction of each cluster between swap cycles:

* ``fastpath_full`` — the PR 2 fast path exactly as shipped: dirty
  clusters re-encode and ship the *full* payload to every replica,
  serially, each cycle;
* ``delta``         — delta shipping on (``delta=True``) plus three
  pipelined link channels: after the first full ship, each cycle moves
  only the dirtied objects (plus tombstones), and the replica fan-out
  overlaps on independent channels.

Both scenarios dirty the same ~10% of each cluster's members per cycle
and replicate to the same ``replication_factor`` stores, so the
comparison is apples-to-apples.  Reported per scenario: per-cycle
simulated swap-out phase cost (the phase ends at ``scheduler.drain()``,
so pipelined transfers are fully paid inside the measured window),
bytes carried across every link, and the delta/pipeline counters.
``python -m repro bench delta`` writes ``BENCH_delta.json`` and checks
:func:`gates`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.bench.hotpath import _percentile
from repro.bench.runner import Gate
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.runtime.obicomp import managed


def _blob(seed_a: int, seed_b: int, nbytes: int) -> str:
    """Deterministic high-entropy hex content (defeats the codec's zlib
    pass, as real application state would)."""
    chunks: List[str] = []
    length = 0
    counter = 0
    while length < nbytes:
        digest = hashlib.sha256(
            f"{seed_a}:{seed_b}:{counter}".encode("ascii")
        ).hexdigest()
        chunks.append(digest)
        length += len(digest)
        counter += 1
    return "".join(chunks)[:nbytes]


@managed(size=192)
class BlobNode:
    """A list element that actually carries state: a 64-byte header's
    worth of links plus an incompressible payload blob.  The quasi-empty
    :class:`~repro.bench.workloads.BenchNode` is right for overhead
    micro-benchmarks but wrong here — delta shipping's win is moving
    *content* selectively, so the workload must have content to move."""

    def __init__(self, index: int, blob: str) -> None:
        self.index = index
        self.blob = blob
        self.next: Optional["BlobNode"] = None


def build_blob_list(n: int, blob_bytes: int) -> BlobNode:
    head = BlobNode(0, _blob(0, -1, blob_bytes))
    node = head
    for index in range(1, n):
        node.next = BlobNode(index, _blob(index, -1, blob_bytes))
        node = node.next
    return head


@dataclass
class DeltaBenchConfig:
    objects: int = 1_000
    cluster_size: int = 50
    cycles: int = 20
    #: Fraction of each cluster's members written per cycle (rotating
    #: window, so successive cycles dirty different objects).
    dirty_fraction: float = 0.10
    #: Incompressible payload per object; a write replaces it.
    blob_bytes: int = 128
    stores: int = 5
    replication_factor: int = 3
    pipeline_channels: int = 3
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls) -> "DeltaBenchConfig":
        """CI smoke-test sizing (sub-second wall clock).

        Eight cycles keep the whole run on one delta chain
        (``delta_max_chain`` defaults to 8): one full ship, seven
        deltas, no compaction — the steady-state picture.
        """
        return cls(objects=400, cluster_size=50, cycles=8)


@dataclass
class ScenarioResult:
    name: str
    cycles: int
    swap_outs: int
    encode_calls: int
    bytes_on_link: int
    link_seconds: float
    #: simulated cost of one full swap-out phase (all clusters out,
    #: scheduler drained) — per-cycle, not per-cluster
    swap_out_phase_mean_s: float
    swap_out_phase_p50_s: float
    swap_out_phase_p95_s: float
    bytes_shipped: int
    delta_ships: int
    delta_fallbacks: int
    delta_compactions: int
    delta_bytes_shipped: int
    delta_bytes_saved: int
    pipeline_transfers: int
    pipeline_saved_s: float
    #: per-phase simulated/wall cost from the profiler (``--obs`` only)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class DeltaBenchReport:
    config: DeltaBenchConfig
    scenarios: Dict[str, ScenarioResult] = field(default_factory=dict)
    observed: bool = False

    @property
    def link_bytes_reduction(self) -> float:
        """fastpath_full / delta bytes carried across all links."""
        delta = self.scenarios["delta"].bytes_on_link
        full = self.scenarios["fastpath_full"].bytes_on_link
        return full / delta if delta > 0 else float("inf")

    @property
    def swap_out_cost_reduction(self) -> float:
        """fastpath_full / delta mean simulated swap-out phase cost."""
        delta = self.scenarios["delta"].swap_out_phase_mean_s
        full = self.scenarios["fastpath_full"].swap_out_phase_mean_s
        return full / delta if delta > 0 else float("inf")

    @property
    def shipped_bytes_reduction(self) -> float:
        delta = self.scenarios["delta"].bytes_shipped
        full = self.scenarios["fastpath_full"].bytes_shipped
        return full / delta if delta > 0 else float("inf")

    def to_json(self) -> str:
        payload = {
            "benchmark": "delta_swap",
            "observed": self.observed,
            "config": asdict(self.config),
            "scenarios": {
                name: asdict(result) for name, result in self.scenarios.items()
            },
            "reductions": {
                "link_bytes": self.link_bytes_reduction,
                "swap_out_cost": self.swap_out_cost_reduction,
                "shipped_bytes": self.shipped_bytes_reduction,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _build_space(config: DeltaBenchConfig) -> tuple:
    clock = SimulatedClock()
    space = Space("delta", heap_capacity=config.heap_capacity, clock=clock)
    links = []
    for index in range(config.stores):
        link = bluetooth_link(clock)
        links.append(link)
        space.manager.add_store(
            XmlStoreDevice(
                f"peer-{index}", capacity=config.store_capacity, link=link
            )
        )
    space.manager.replication_factor = config.replication_factor
    space.ingest(
        build_blob_list(config.objects, config.blob_bytes),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    sids = [
        sid
        for sid, cluster in sorted(space._clusters.items())
        if cluster.swappable() and cluster.oids
    ]
    return space, clock, links, sids


def _mutate_fraction(
    space: Space, sid: int, cycle: int, config: DeltaBenchConfig
) -> None:
    """Rewrite a rotating ~``dirty_fraction`` window of the cluster's
    members (fresh blob content, bumped counter).

    Every write goes through the write barrier, so with delta enabled
    the cluster's dirty set names exactly these objects.
    """
    cluster = space._clusters[sid]
    oids = sorted(cluster.oids)
    count = max(1, int(round(len(oids) * config.dirty_fraction)))
    start = (cycle * count) % len(oids)
    for step in range(count):
        oid = oids[(start + step) % len(oids)]
        node = space._objects[oid]
        node.index = node.index + 1
        node.blob = _blob(oid, cycle, config.blob_bytes)


def run_scenario(
    name: str,
    config: DeltaBenchConfig,
    *,
    delta: bool,
    observe: bool = False,
    obs_path: str | None = None,
    obs_append: bool = True,
) -> ScenarioResult:
    space, clock, links, sids = _build_space(config)
    manager = space.manager
    manager.enable_fastpath(
        FastPathConfig(
            delta=delta,
            pipeline_channels=config.pipeline_channels if delta else 0,
        )
    )
    obs = manager.enable_observability() if observe else None

    phase_costs: List[float] = []
    for cycle in range(config.cycles):
        for sid in sids:
            _mutate_fraction(space, sid, cycle, config)
        start = clock.now()
        for sid in sids:
            manager.swap_out(sid)
        scheduler = manager.fastpath.scheduler
        if scheduler is not None:
            scheduler.drain()
        phase_costs.append(clock.now() - start)
        for sid in sids:
            manager.swap_in(sid)

    phases: Dict[str, Dict[str, float]] = {}
    if obs is not None:
        obs.refresh()
        phases = obs.profiler.breakdown()
        if obs_path is not None:
            obs.export_jsonl(obs_path, label=f"delta:{name}", append=obs_append)

    stats = manager.stats
    scheduler = manager.fastpath.scheduler
    return ScenarioResult(
        name=name,
        cycles=config.cycles,
        swap_outs=stats.swap_outs,
        encode_calls=stats.encode_calls,
        bytes_on_link=sum(link.stats.bytes_carried for link in links),
        link_seconds=sum(link.stats.seconds_charged for link in links),
        swap_out_phase_mean_s=sum(phase_costs) / len(phase_costs),
        swap_out_phase_p50_s=_percentile(phase_costs, 0.50),
        swap_out_phase_p95_s=_percentile(phase_costs, 0.95),
        bytes_shipped=stats.bytes_shipped,
        delta_ships=stats.fastpath_delta_ships,
        delta_fallbacks=stats.fastpath_delta_fallbacks,
        delta_compactions=stats.fastpath_delta_compactions,
        delta_bytes_shipped=stats.delta_bytes_shipped,
        delta_bytes_saved=stats.delta_bytes_saved,
        pipeline_transfers=(
            scheduler.stats.transfers if scheduler is not None else 0
        ),
        pipeline_saved_s=(
            scheduler.stats.saved_s if scheduler is not None else 0.0
        ),
        phases=phases,
    )


def run_delta_bench(
    config: DeltaBenchConfig | None = None,
    *,
    observe: bool = False,
    obs_path: str | None = None,
) -> DeltaBenchReport:
    """Run both scenarios on identical workloads.

    With ``observe`` each scenario runs under a fresh observability
    attachment and reports its per-phase cost breakdown; ``obs_path``
    additionally appends one labeled JSONL dump per scenario.
    """
    config = config if config is not None else DeltaBenchConfig()
    report = DeltaBenchReport(config=config, observed=observe)
    plans = [("fastpath_full", False), ("delta", True)]
    for index, (name, delta) in enumerate(plans):
        report.scenarios[name] = run_scenario(
            name,
            config,
            delta=delta,
            observe=observe,
            obs_path=obs_path,
            obs_append=index > 0,
        )
    return report


def format_table(report: DeltaBenchReport) -> str:
    header = (
        f"{'scenario':<15} {'phase p50 s':>12} {'phase p95 s':>12} "
        f"{'link bytes':>11} {'deltas':>7} {'fallbacks':>9} "
        f"{'compact':>7} {'saved B':>9}"
    )
    lines = [header, "-" * len(header)]
    for result in report.scenarios.values():
        lines.append(
            f"{result.name:<15} {result.swap_out_phase_p50_s:>12.4f} "
            f"{result.swap_out_phase_p95_s:>12.4f} "
            f"{result.bytes_on_link:>11} {result.delta_ships:>7} "
            f"{result.delta_fallbacks:>9} {result.delta_compactions:>7} "
            f"{result.delta_bytes_saved:>9}"
        )
    lines.append(
        f"reductions vs fastpath_full: link bytes "
        f"{report.link_bytes_reduction:.1f}x, swap-out cost "
        f"{report.swap_out_cost_reduction:.1f}x, shipped bytes "
        f"{report.shipped_bytes_reduction:.1f}x"
    )
    return "\n".join(lines)


def gates(payload: Dict[str, Any]) -> Iterator[Gate]:
    """The acceptance bars on a ``to_json`` payload."""
    full = payload["scenarios"]["fastpath_full"]
    delta = payload["scenarios"]["delta"]
    # >=3x fewer bytes on the links and >=2x cheaper simulated swap-out
    # for the skewed-write workload
    yield Gate("reductions.link_bytes", ">=", 3.0)
    yield Gate("reductions.swap_out_cost", ">=", 2.0)
    # same amount of swapping everywhere: the comparison is apples-to-apples
    yield Gate("scenarios.delta.swap_outs", "==", full["swap_outs"])
    # after the first full ship, every dirty swap-out moves a delta:
    # cycles-1 delta cycles per cluster, no fallbacks, no compactions
    # (quick sizing keeps every chain within delta_max_chain), and only
    # the first cycle's full ships invoke the encoder
    clusters = delta["swap_outs"] // delta["cycles"]
    yield Gate("scenarios.delta.delta_ships", "==", clusters * (delta["cycles"] - 1))
    yield Gate("scenarios.delta.delta_fallbacks", "==", 0)
    yield Gate("scenarios.delta.delta_compactions", "==", 0)
    yield Gate("scenarios.delta.encode_calls", "==", clusters)
    # the fan-out actually pipelined: overlap saved simulated seconds
    yield Gate("scenarios.delta.pipeline_transfers", ">", 0)
    yield Gate("scenarios.delta.pipeline_saved_s", ">", 0.0)
    # the honesty check: with delta off nothing rides the delta path
    yield Gate("scenarios.fastpath_full.delta_ships", "==", 0)
    yield Gate("scenarios.fastpath_full.pipeline_transfers", "==", 0)
    yield Gate("scenarios.fastpath_full.encode_calls", "==", full["swap_outs"])
