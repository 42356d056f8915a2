"""Durability benchmark: recovery cost after killing 1..k of n stores.

The replicated swap-out (:mod:`repro.resilience.placement`) claims that
``replication_factor`` copies across distinct stores make swapped
clusters survive store deaths.  This harness measures what that claim
costs: for each kill count it swaps a workload out at the configured
factor over ``stores`` nearby devices (each behind its own simulated
Bluetooth-class link), kills that many stores *with data loss*, and
drives the scrubber until the neighborhood is stable again — reporting

* **recovery time** — simulated seconds of scrub/repair traffic until
  replication is restored;
* **bytes re-replicated** — payload bytes the repair shipped;
* **clusters lost** — how many records had no surviving copy (must be
  zero while ``kills < replication_factor``);
* **replicas lost** — copies the killed stores held, which the repair
  must re-create one for one.

``python -m repro bench durability`` writes ``BENCH_durability.json``
and checks :func:`gates`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.bench.runner import Gate
from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from repro.resilience import ResilienceConfig


@dataclass
class DurabilityConfig:
    objects: int = 600
    cluster_size: int = 50
    stores: int = 5
    replication_factor: int = 3
    max_kills: int = 4
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls) -> "DurabilityConfig":
        """CI smoke-test sizing (sub-second wall clock)."""
        return cls(objects=200, cluster_size=50, max_kills=3)


@dataclass
class KillResult:
    """What recovering from ``kills`` simultaneous store deaths cost."""

    kills: int
    clusters: int
    clusters_lost: int
    recovery_s: float
    bytes_re_replicated: int
    replicas_repaired: int
    scrub_passes: int
    fully_replicated: int  # clusters back at the target factor
    #: copies held on the killed stores (what the repair must re-create)
    replicas_lost: int
    #: per-phase simulated/wall cost from the profiler (``--obs`` only)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class DurabilityReport:
    config: DurabilityConfig
    results: Dict[int, KillResult] = field(default_factory=dict)
    observed: bool = False

    @property
    def survives_minority_loss(self) -> bool:
        """Zero clusters lost for every kill count below the factor."""
        return all(
            result.clusters_lost == 0
            for kills, result in self.results.items()
            if kills < self.config.replication_factor
        )

    def to_json(self) -> str:
        payload = {
            "benchmark": "durability",
            "observed": self.observed,
            "config": asdict(self.config),
            "results": {
                str(kills): asdict(result)
                for kills, result in sorted(self.results.items())
            },
            "survives_minority_loss": self.survives_minority_loss,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def run_kill_scenario(
    config: DurabilityConfig,
    kills: int,
    *,
    observe: bool = False,
    obs_path: Optional[str] = None,
    obs_append: bool = True,
) -> KillResult:
    """One scenario: swap out, kill ``kills`` stores, scrub to stable."""
    clock = SimulatedClock()
    space = Space(
        f"durability-{kills}", heap_capacity=config.heap_capacity, clock=clock
    )
    injector = FaultInjector(FaultPlan.empty(seed=kills), clock)
    flaky: List[FlakyStore] = []
    for i in range(config.stores):
        inner = XmlStoreDevice(
            f"s{i}",
            capacity=config.store_capacity,
            link=bluetooth_link(clock),
        )
        store = FlakyStore(inner, injector)
        flaky.append(store)
        space.manager.add_store(store)
    space.manager.enable_resilience(
        ResilienceConfig(
            replication_factor=config.replication_factor,
            degrade_to_local=False,
            scrub_interval_s=1.0,
        )
    )

    obs = space.manager.enable_observability() if observe else None

    space.ingest(
        build_list(config.objects),
        cluster_size=config.cluster_size,
        root_name="head",
    )
    sids = [
        sid
        for sid, cluster in sorted(space._clusters.items())
        if cluster.swappable() and cluster.oids
    ]
    for sid in sids:
        space.manager.swap_out(sid)

    placement = space.manager.resilience.placement
    replicas_lost = sum(
        store.device_id in record.replicas
        for record in placement.records().values()
        for store in flaky[:kills]
    )
    for store in flaky[:kills]:
        store.kill(lose_data=True)
        space.manager.detach_store(store, dead=True)

    scrubber = space.manager.resilience.scrubber
    stats_before_bytes = space.manager.stats.scrub_bytes_repaired
    stats_before_repairs = space.manager.stats.replicas_repaired
    passes_before = space.manager.stats.scrub_ticks
    started = clock.now()
    scrubber.run_until_stable()
    recovery_s = clock.now() - started

    lost = sum(
        1 for record in placement.records().values() if record.live_count == 0
    )
    full = sum(
        1
        for record in placement.records().values()
        if record.live_count >= config.replication_factor
    )
    phases: Dict[str, Dict[str, float]] = {}
    if obs is not None:
        obs.refresh()
        phases = obs.profiler.breakdown()
        if obs_path is not None:
            obs.export_jsonl(
                obs_path, label=f"durability:kills={kills}", append=obs_append
            )

    stats = space.manager.stats
    return KillResult(
        kills=kills,
        clusters=len(sids),
        clusters_lost=lost,
        recovery_s=recovery_s,
        bytes_re_replicated=stats.scrub_bytes_repaired - stats_before_bytes,
        replicas_repaired=stats.replicas_repaired - stats_before_repairs,
        scrub_passes=stats.scrub_ticks - passes_before,
        fully_replicated=full,
        replicas_lost=replicas_lost,
        phases=phases,
    )


def run_durability(
    config: DurabilityConfig | None = None,
    *,
    observe: bool = False,
    obs_path: Optional[str] = None,
) -> DurabilityReport:
    config = config if config is not None else DurabilityConfig()
    report = DurabilityReport(config=config, observed=observe)
    top = min(config.max_kills, config.stores - 1)
    for kills in range(1, top + 1):
        report.results[kills] = run_kill_scenario(
            config,
            kills,
            observe=observe,
            obs_path=obs_path,
            obs_append=kills > 1,
        )
    return report


def format_table(report: DurabilityReport) -> str:
    header = (
        f"{'kills':>5} {'clusters':>9} {'lost':>5} {'recovery s':>11} "
        f"{'bytes reshipped':>16} {'copies lost':>12} {'repairs':>8} "
        f"{'full rf':>8}"
    )
    lines = [header, "-" * len(header)]
    for kills, result in sorted(report.results.items()):
        lines.append(
            f"{kills:>5} {result.clusters:>9} {result.clusters_lost:>5} "
            f"{result.recovery_s:>11.3f} {result.bytes_re_replicated:>16} "
            f"{result.replicas_lost:>12} {result.replicas_repaired:>8} "
            f"{result.fully_replicated:>8}"
        )
    lines.append(
        "survives minority loss: "
        + ("yes" if report.survives_minority_loss else "NO")
    )
    return "\n".join(lines)


def gates(payload: Dict[str, Any]) -> Iterator[Gate]:
    """The acceptance bars on a ``to_json`` payload."""
    results = payload["results"]
    # the durability claim: any minority of store deaths loses nothing,
    # and everything is re-replicated back to the target factor
    yield Gate("survives_minority_loss", "==", True)
    for kills, result in results.items():
        if int(kills) < payload["config"]["replication_factor"]:
            at = f"results.{kills}"
            yield Gate(f"{at}.clusters_lost", "==", 0)
            yield Gate(f"{at}.fully_replicated", "==", result["clusters"])
            # every copy the dead stores held is re-created, one for one
            yield Gate(f"{at}.replicas_repaired", "==", result["replicas_lost"])
            yield Gate(f"{at}.bytes_re_replicated", ">", 0)
            yield Gate(f"{at}.recovery_s", ">", 0.0)  # repair is not free
    # recovery work scales with what was lost: two deaths re-ship more
    # than one (the bench's headline numbers stay meaningful)
    if "1" in results and "2" in results:
        yield Gate(
            "results.2.bytes_re_replicated",
            ">",
            results["1"]["bytes_re_replicated"],
        )
    if payload["observed"]:
        for kills in results:
            yield Gate(f"results.{kills}.phases", "!=", {})
