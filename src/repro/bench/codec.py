"""Wire-codec benchmark: binary framing vs canonical XML on the hot path.

Both scenarios run the *mutating* hot-path workload (every cycle dirties
one member per cluster, so every swap-out re-encodes and every swap-in
re-decodes — no fast-path no-ops hide the codec), over the paper's
Bluetooth-class link:

* ``xml``    — ``FastPathConfig()`` defaults: canonical XML on the wire,
  exactly the pre-codec pipeline;
* ``binary`` — ``FastPathConfig(codec="binary")``: the length-prefixed
  framing of :mod:`repro.wire.binary`, negotiated per store.

Simulated link cost is deterministic and diffs exactly between runs;
the codec's headline number is *real* CPU time — the encode and decode
phase wall clocks from the :class:`~repro.obs.profile.PhaseProfiler`
(every ``*wall*`` leaf in the JSON is compared jitter-tolerantly by
``repro obs report --compare``).  The acceptance bar is a >= 2x
reduction in combined encode+decode wall time.

``--seed`` perturbs which member of each cluster mutates per cycle, so
CI can demand the floor across several workload shapes.
``python -m repro bench codec`` writes ``BENCH_codec.json`` and checks
:func:`gates`.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List

from repro.bench.hotpath import HotPathConfig, _build_space, _percentile
from repro.bench.runner import Gate
from repro.core.fastpath import FastPathConfig


@dataclass
class CodecBenchConfig:
    objects: int = 1_000
    cluster_size: int = 50
    cycles: int = 20
    seed: int = 1
    heap_capacity: int = 32 << 20
    store_capacity: int = 32 << 20
    #: each scenario runs this many times and reports its *fastest* run —
    #: min-of-N is the standard defense against scheduler noise when the
    #: metric is wall clock on a shared runner
    repeats: int = 3

    @classmethod
    def quick(cls, seed: int = 1) -> "CodecBenchConfig":
        """CI sizing: a few seconds of wall clock, same 50-object clusters."""
        return cls(objects=400, cluster_size=50, cycles=8, seed=seed)

    def hotpath(self) -> HotPathConfig:
        return HotPathConfig(
            objects=self.objects,
            cluster_size=self.cluster_size,
            cycles=self.cycles,
            heap_capacity=self.heap_capacity,
            store_capacity=self.store_capacity,
        )


@dataclass
class CodecScenarioResult:
    name: str
    cycles: int
    swap_outs: int
    encode_calls: int
    bytes_on_link: int
    link_seconds: float
    swap_out_mean_s: float
    cycle_p50_s: float
    cycle_p95_s: float
    codec_binary_ships: int
    codec_binary_fetches: int
    codec_fallbacks: int
    #: real CPU seconds in the profiler's encode/decode phases — the
    #: ``wall`` leaf names opt these into jitter-tolerant comparison
    encode_wall_s: float
    decode_wall_s: float
    encode_decode_wall_s: float
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class CodecReport:
    config: CodecBenchConfig
    scenarios: Dict[str, CodecScenarioResult] = field(default_factory=dict)

    def _reduction(self, attr: str) -> float:
        binary = getattr(self.scenarios["binary"], attr)
        xml = getattr(self.scenarios["xml"], attr)
        return xml / binary if binary > 0 else float("inf")

    @property
    def encode_decode_wall_reduction(self) -> float:
        """xml / binary combined encode+decode wall time (the headline)."""
        return self._reduction("encode_decode_wall_s")

    @property
    def link_bytes_reduction(self) -> float:
        return self._reduction("bytes_on_link")

    @property
    def link_seconds_reduction(self) -> float:
        return self._reduction("link_seconds")

    def to_json(self) -> str:
        payload = {
            "benchmark": "codec",
            "seed": self.config.seed,
            "config": asdict(self.config),
            "scenarios": {
                name: asdict(result) for name, result in self.scenarios.items()
            },
            "reductions": {
                "encode_wall": self._reduction("encode_wall_s"),
                "decode_wall": self._reduction("decode_wall_s"),
                "encode_decode_wall": self.encode_decode_wall_reduction,
                "link_bytes": self.link_bytes_reduction,
                "link_seconds": self.link_seconds_reduction,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def run_codec_scenario(
    name: str,
    config: CodecBenchConfig,
    *,
    codec: str | None,
    obs_path: str | None = None,
    obs_append: bool = True,
) -> CodecScenarioResult:
    """One mutating hot-path run under ``codec`` (always profiled —
    the wall columns are the benchmark)."""
    space, clock, link, sids = _build_space(config.hotpath())
    manager = space.manager
    manager.enable_fastpath(
        FastPathConfig(codec=codec, serve_swap_in_from_cache=False)
    )
    obs = manager.enable_observability()
    rng = random.Random(config.seed)

    swap_out_costs: List[float] = []
    cycle_costs: List[float] = []
    for _ in range(config.cycles):
        for sid in sids:
            cluster = space._clusters[sid]
            oid = rng.choice(sorted(cluster.oids))
            node = space._objects[oid]
            node.index = node.index + 1
            start = clock.now()
            manager.swap_out(sid)
            swap_out_costs.append(clock.now() - start)
            manager.swap_in(sid)
            cycle_costs.append(clock.now() - start)

    obs.refresh()
    phases: Dict[str, Dict[str, Any]] = obs.profiler.breakdown()
    if obs_path is not None:
        obs.export_jsonl(obs_path, label=f"codec:{name}", append=obs_append)

    encode_wall = phases.get("encode", {}).get("wall_s", 0.0)
    decode_wall = phases.get("decode", {}).get("wall_s", 0.0)
    stats = manager.stats
    return CodecScenarioResult(
        name=name,
        cycles=config.cycles,
        swap_outs=stats.swap_outs,
        encode_calls=stats.encode_calls,
        bytes_on_link=link.stats.bytes_carried,
        link_seconds=link.stats.seconds_charged,
        swap_out_mean_s=sum(swap_out_costs) / len(swap_out_costs),
        cycle_p50_s=_percentile(cycle_costs, 0.50),
        cycle_p95_s=_percentile(cycle_costs, 0.95),
        codec_binary_ships=stats.codec_binary_ships,
        codec_binary_fetches=stats.codec_binary_fetches,
        codec_fallbacks=stats.codec_fallbacks,
        encode_wall_s=encode_wall,
        decode_wall_s=decode_wall,
        encode_decode_wall_s=encode_wall + decode_wall,
        phases=phases,
    )


def run_codec_bench(
    config: CodecBenchConfig | None = None,
    *,
    obs_path: str | None = None,
) -> CodecReport:
    """Run the xml and binary scenarios on identical seeded workloads.

    Each scenario is repeated ``config.repeats`` times and the fastest
    run (by combined encode+decode wall time) is the one reported."""
    config = config if config is not None else CodecBenchConfig()
    report = CodecReport(config=config)
    # repeats are interleaved (xml, binary, xml, binary, ...) so slow
    # machine drift — thermal throttling, a noisy neighbor arriving —
    # lands on both scenarios instead of biasing whichever runs last
    for attempt in range(max(1, config.repeats)):
        for index, (name, codec) in enumerate(
            [("xml", None), ("binary", "binary")]
        ):
            result = run_codec_scenario(
                name,
                config,
                codec=codec,
                # the JSONL dump comes from the first attempt; the
                # simulated series are identical across repeats
                obs_path=obs_path if attempt == 0 else None,
                obs_append=index > 0,
            )
            best = report.scenarios.get(name)
            if (
                best is None
                or result.encode_decode_wall_s < best.encode_decode_wall_s
            ):
                report.scenarios[name] = result
    return report


def format_table(report: CodecReport) -> str:
    from repro.bench.report import format_sim_wall

    header = (
        f"{'scenario':<10} {'enc wall ms':>12} {'dec wall ms':>12} "
        f"{'link bytes':>11} {'link s':>9} {'cycle p50 (sim/wall)':>28} "
        f"{'bin ships':>9} {'fallbacks':>9}"
    )
    lines = [header, "-" * len(header)]
    for result in report.scenarios.values():
        lines.append(
            f"{result.name:<10} {result.encode_wall_s * 1000:>12.2f} "
            f"{result.decode_wall_s * 1000:>12.2f} "
            f"{result.bytes_on_link:>11} {result.link_seconds:>9.3f} "
            f"{format_sim_wall(result.cycle_p50_s, result.encode_decode_wall_s):>28} "
            f"{result.codec_binary_ships:>9} {result.codec_fallbacks:>9}"
        )
    lines.append(
        f"reductions (xml / binary): encode+decode wall "
        f"{report.encode_decode_wall_reduction:.2f}x, link bytes "
        f"{report.link_bytes_reduction:.2f}x, link seconds "
        f"{report.link_seconds_reduction:.2f}x"
    )
    return "\n".join(lines)


def gates(payload: Dict[str, Any]) -> Iterator[Gate]:
    """The acceptance bars on a ``to_json`` payload."""
    xml = payload["scenarios"]["xml"]
    binary = payload["scenarios"]["binary"]
    # >=2x cheaper combined encode+decode wall time, and the smaller
    # frames also shrink the simulated link bill
    yield Gate("reductions.encode_decode_wall", ">=", 2.0)
    yield Gate("reductions.link_bytes", ">", 1.0)
    yield Gate("reductions.link_seconds", ">", 1.0)
    # same amount of swapping everywhere: apples-to-apples
    yield Gate("scenarios.binary.swap_outs", "==", xml["swap_outs"])
    yield Gate("scenarios.binary.encode_calls", "==", xml["encode_calls"])
    # every binary swap-out negotiated and shipped frames; nothing fell
    # back to XML mid-run, and every swap-in verified a binary payload
    yield Gate("scenarios.binary.codec_binary_ships", "==", binary["swap_outs"])
    yield Gate("scenarios.binary.codec_binary_fetches", "==", binary["swap_outs"])
    yield Gate("scenarios.binary.codec_fallbacks", "==", 0)
    # the honesty check: with the codec off nothing rides the binary path
    yield Gate("scenarios.xml.codec_binary_ships", "==", 0)
    yield Gate("scenarios.xml.codec_binary_fetches", "==", 0)
