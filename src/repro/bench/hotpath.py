"""Swap hot-path benchmark: clean-cluster fast path vs always-re-encode.

Measures what the fast path (:mod:`repro.core.fastpath`) buys on the
paper's Bluetooth-class link for the common case — clusters that swap
out *unmodified* after their last cycle:

* ``baseline``          — fast path off: every swap-out re-encodes the
  cluster and ships the full payload;
* ``fastpath_clean``    — fast path on, clusters never mutated: after
  the first cycle every swap-out is a metadata-only no-op (or at worst a
  cached re-ship) and every swap-in is served from the payload cache;
* ``fastpath_mutating`` — fast path on, one member mutated before every
  swap-out: dirty tracking must force the full pipeline each time (the
  honesty check — invalidation is not free riding on stale payloads).

Reported per scenario: p50/p95 simulated swap-out and full-cycle cost,
bytes carried on the link, encoder invocations, and the fast-path
counters.  ``python -m repro bench hotpath`` writes
``BENCH_swap_hotpath.json`` and checks :func:`gates`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List

from repro.bench.runner import Gate
from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice


@dataclass
class HotPathConfig:
    objects: int = 1_000
    cluster_size: int = 50
    cycles: int = 20
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20

    @classmethod
    def quick(cls) -> "HotPathConfig":
        """CI smoke-test sizing (sub-second wall clock).

        Keeps the paper-scale 50-object clusters: with very small
        clusters the per-message link latency dominates both paths and
        the metadata-only no-op's advantage shrinks below its real value.
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
    swap_out_p50_s: float
    swap_out_p95_s: float
    swap_out_mean_s: float
    cycle_p50_s: float
    cycle_p95_s: float
    fastpath_noops: int
    fastpath_reships: int
    swapin_cache_hits: int
    #: per-phase simulated/wall cost from the profiler (``--obs`` only)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class HotPathReport:
    config: HotPathConfig
    scenarios: Dict[str, ScenarioResult] = field(default_factory=dict)
    observed: bool = False

    @property
    def swap_out_cost_reduction(self) -> float:
        """baseline / fastpath_clean mean simulated swap-out cost."""
        clean = self.scenarios["fastpath_clean"].swap_out_mean_s
        base = self.scenarios["baseline"].swap_out_mean_s
        return base / clean if clean > 0 else float("inf")

    @property
    def encode_call_reduction(self) -> float:
        clean = self.scenarios["fastpath_clean"].encode_calls
        base = self.scenarios["baseline"].encode_calls
        return base / clean if clean > 0 else float("inf")

    @property
    def link_bytes_reduction(self) -> float:
        clean = self.scenarios["fastpath_clean"].bytes_on_link
        base = self.scenarios["baseline"].bytes_on_link
        return base / clean if clean > 0 else float("inf")

    def to_json(self) -> str:
        payload = {
            "benchmark": "swap_hotpath",
            "observed": self.observed,
            "config": asdict(self.config),
            "scenarios": {
                name: asdict(result) for name, result in self.scenarios.items()
            },
            "reductions": {
                "swap_out_cost": self.swap_out_cost_reduction,
                "encode_calls": self.encode_call_reduction,
                "link_bytes": self.link_bytes_reduction,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _build_space(config: HotPathConfig) -> tuple:
    clock = SimulatedClock()
    space = Space("hotpath", heap_capacity=config.heap_capacity, clock=clock)
    link = bluetooth_link(clock)
    store = XmlStoreDevice(
        "nearby", capacity=config.store_capacity, link=link
    )
    space.manager.add_store(store)
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
    return space, clock, link, sids


def _mutate_one(space: Space, sid: int) -> None:
    """Touch one member field through the write barrier (dirties the sid)."""
    cluster = space._clusters[sid]
    oid = min(cluster.oids)
    node = space._objects[oid]
    node.index = node.index + 1


def run_scenario(
    name: str,
    config: HotPathConfig,
    *,
    fastpath: bool,
    mutate: bool,
    fastpath_config: FastPathConfig | None = None,
    observe: bool = False,
    obs_path: str | None = None,
    obs_append: bool = True,
) -> ScenarioResult:
    space, clock, link, sids = _build_space(config)
    manager = space.manager
    if fastpath:
        manager.enable_fastpath(
            fastpath_config if fastpath_config is not None else FastPathConfig()
        )
    obs = manager.enable_observability() if observe else None

    swap_out_costs: List[float] = []
    cycle_costs: List[float] = []
    for _ in range(config.cycles):
        for sid in sids:
            if mutate:
                _mutate_one(space, sid)
            start = clock.now()
            manager.swap_out(sid)
            swap_out_costs.append(clock.now() - start)
            manager.swap_in(sid)
            cycle_costs.append(clock.now() - start)

    phases: Dict[str, Dict[str, float]] = {}
    if obs is not None:
        obs.refresh()
        phases = obs.profiler.breakdown()
        if obs_path is not None:
            obs.export_jsonl(
                obs_path, label=f"hotpath:{name}", append=obs_append
            )

    stats = manager.stats
    return ScenarioResult(
        name=name,
        cycles=config.cycles,
        swap_outs=stats.swap_outs,
        encode_calls=stats.encode_calls,
        bytes_on_link=link.stats.bytes_carried,
        link_seconds=link.stats.seconds_charged,
        swap_out_p50_s=_percentile(swap_out_costs, 0.50),
        swap_out_p95_s=_percentile(swap_out_costs, 0.95),
        swap_out_mean_s=sum(swap_out_costs) / len(swap_out_costs),
        cycle_p50_s=_percentile(cycle_costs, 0.50),
        cycle_p95_s=_percentile(cycle_costs, 0.95),
        fastpath_noops=stats.fastpath_noops,
        fastpath_reships=stats.fastpath_reships,
        swapin_cache_hits=stats.swapin_cache_hits,
        phases=phases,
    )


def run_hotpath(
    config: HotPathConfig | None = None,
    *,
    observe: bool = False,
    obs_path: str | None = None,
) -> HotPathReport:
    """Run all three scenarios on identical workloads.

    With ``observe`` each scenario runs under a fresh observability
    attachment and reports its per-phase cost breakdown; ``obs_path``
    additionally appends one labeled JSONL dump per scenario.
    """
    config = config if config is not None else HotPathConfig()
    report = HotPathReport(config=config, observed=observe)
    plans = [
        ("baseline", False, False),
        ("fastpath_clean", True, False),
        ("fastpath_mutating", True, True),
    ]
    for index, (name, fastpath, mutate) in enumerate(plans):
        report.scenarios[name] = run_scenario(
            name,
            config,
            fastpath=fastpath,
            mutate=mutate,
            observe=observe,
            obs_path=obs_path,
            obs_append=index > 0,
        )
    return report


def format_table(report: HotPathReport) -> str:
    from repro.bench.report import format_sim_wall

    header = (
        f"{'scenario':<20} {'out p50 s':>10} {'out p95 s':>10} "
        f"{'cycle p50 s':>12} {'link bytes':>11} {'encodes':>8} "
        f"{'noops':>6} {'cache hits':>10}"
    )
    if report.observed:
        header += f" {'enc+dec (sim/wall)':>28}"
    lines = [header, "-" * len(header)]
    for result in report.scenarios.values():
        line = (
            f"{result.name:<20} {result.swap_out_p50_s:>10.4f} "
            f"{result.swap_out_p95_s:>10.4f} {result.cycle_p50_s:>12.4f} "
            f"{result.bytes_on_link:>11} {result.encode_calls:>8} "
            f"{result.fastpath_noops:>6} {result.swapin_cache_hits:>10}"
        )
        if report.observed:
            sim = sum(
                result.phases.get(phase, {}).get("sim_s", 0.0)
                for phase in ("encode", "decode")
            )
            wall = sum(
                result.phases.get(phase, {}).get("wall_s", 0.0)
                for phase in ("encode", "decode")
            )
            line += f" {format_sim_wall(sim, wall):>28}"
        lines.append(line)
    lines.append(
        f"reductions vs baseline: swap-out cost "
        f"{report.swap_out_cost_reduction:.1f}x, encodes "
        f"{report.encode_call_reduction:.1f}x, link bytes "
        f"{report.link_bytes_reduction:.1f}x"
    )
    return "\n".join(lines)


def gates(payload: Dict[str, Any]) -> Iterator[Gate]:
    """The acceptance bars on a ``to_json`` payload."""
    scenarios = payload["scenarios"]
    clean = scenarios["fastpath_clean"]
    mutating = scenarios["fastpath_mutating"]
    # >=2x cheaper simulated swap-out, >=2x fewer encoder invocations and
    # >=2x fewer link bytes for unmodified clusters
    yield Gate("reductions.swap_out_cost", ">=", 2.0)
    yield Gate("reductions.encode_calls", ">=", 2.0)
    yield Gate("reductions.link_bytes", ">=", 2.0)
    # same amount of swapping everywhere: the comparison is apples-to-apples
    for name in ("fastpath_clean", "fastpath_mutating"):
        yield Gate(
            f"scenarios.{name}.swap_outs", "==", scenarios["baseline"]["swap_outs"]
        )
    # after the first cycle every clean swap-out is a metadata-only no-op,
    # and every clean swap-in is served from the local payload cache
    yield Gate(
        "scenarios.fastpath_clean.fastpath_noops",
        "==",
        clean["swap_outs"] - clean["encode_calls"],
    )
    yield Gate("scenarios.fastpath_clean.swapin_cache_hits", "==", clean["swap_outs"])
    # the honesty check: mutation invalidates the fast path every cycle
    yield Gate("scenarios.fastpath_mutating.fastpath_noops", "==", 0)
    yield Gate(
        "scenarios.fastpath_mutating.encode_calls", "==", mutating["swap_outs"]
    )
    if payload["observed"]:
        for name in scenarios:
            yield Gate(f"scenarios.{name}.phases", "!=", {})
            yield Gate(f"scenarios.{name}.phases", "contains", "encode")
