"""One runner for the swap benches, and the gates each one declares.

Usage::

    python -m repro bench <name|all> [--quick] [--seed N] [--output P]
                          [--obs] [--obs-output P]

A run writes the bench's JSON report (``BENCH_<stem>.json`` unless
``--output`` says otherwise), prints its table, and then evaluates the
acceptance gates declared next to the bench in its module
(``gates(payload)``).  It names every gate that failed and exits
nonzero if any did, so a laptop and CI apply the same bars.  With
``--obs`` each scenario also runs under observability and appends a
labeled trace/metric dump to ``BENCH_<stem>_obs.jsonl``.  An omitted
``--seed`` means the bench's own default.  ``all`` runs every bench
with its default output paths.
"""

from __future__ import annotations

import argparse
import importlib
import json
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
    "contains": operator.contains,
}


@dataclass(frozen=True)
class Gate:
    """One acceptance bar: the payload value at ``path`` ``op`` ``bound``.

    ``path`` is dotted into the bench's JSON payload, with list items by
    index (``integration.0.clusters_lost``).  A missing path fails.
    """

    path: str
    op: str
    bound: Any

    def __str__(self) -> str:
        return f"{self.path} {self.op} {self.bound!r}"

    def value(self, payload: Any) -> Any:
        for key in self.path.split("."):
            payload = payload[int(key) if isinstance(payload, list) else key]
        return payload

    def holds(self, payload: Any) -> bool:
        try:
            return bool(_OPS[self.op](self.value(payload), self.bound))
        except (LookupError, TypeError, ValueError):
            return False


def failed_gates(module: Any, payload: Dict[str, Any]) -> List[Gate]:
    """The gates of bench ``module`` that ``payload`` misses."""
    return [gate for gate in module.gates(payload) if not gate.holds(payload)]


def _seeded(config: Any, seed: Optional[int]) -> Any:
    """``config`` with ``seed`` applied; ``None`` keeps its own default."""
    if seed is not None:
        config.seed = seed
    return config


def _hotpath(bench, quick, seed, obs_path):
    config = bench.HotPathConfig.quick() if quick else bench.HotPathConfig()
    return bench.run_hotpath(
        config, observe=obs_path is not None, obs_path=obs_path
    )


def _delta(bench, quick, seed, obs_path):
    config = bench.DeltaBenchConfig.quick() if quick else bench.DeltaBenchConfig()
    return bench.run_delta_bench(
        config, observe=obs_path is not None, obs_path=obs_path
    )


def _durability(bench, quick, seed, obs_path):
    config = bench.DurabilityConfig.quick() if quick else bench.DurabilityConfig()
    return bench.run_durability(
        config, observe=obs_path is not None, obs_path=obs_path
    )


def _codec(bench, quick, seed, obs_path):
    config = bench.CodecBenchConfig.quick() if quick else bench.CodecBenchConfig()
    return bench.run_codec_bench(_seeded(config, seed), obs_path=obs_path)


def _async_sched(bench, quick, seed, obs_path):
    config = bench.AsyncBenchConfig.quick() if quick else bench.AsyncBenchConfig()
    return bench.run_async_bench(
        _seeded(config, seed), observe=obs_path is not None, obs_path=obs_path
    )


def _topology(bench, quick, seed, obs_path):
    config = (
        bench.TopologyBenchConfig.quick() if quick else bench.TopologyBenchConfig()
    )
    return bench.run_topology_bench(
        _seeded(config, seed), observe=obs_path is not None, obs_path=obs_path
    )


def _tenancy(bench, quick, seed, obs_path):
    if seed is not None:
        seeds = (seed,)
    else:
        seeds = (1,) if quick else (1, 2, 3)
    return bench.run_bench(
        seeds, quick=quick, observe=obs_path is not None, obs_path=obs_path
    )


def _scenarios(bench, quick, seed, obs_path):
    if quick:
        config = bench.ScenarioBenchConfig.quick_config(seed)
    elif seed is not None:
        config = bench.ScenarioBenchConfig(seeds=(seed,))
    else:
        config = bench.ScenarioBenchConfig()
    return bench.run_scenarios(
        config, observe=obs_path is not None, obs_path=obs_path
    )


@dataclass(frozen=True)
class _Bench:
    #: default outputs are ``<stem>.json`` and ``<stem>_obs.jsonl``
    stem: str
    #: ``(module, quick, seed or None, obs_path or None) -> report``
    run: Callable[[Any, bool, Optional[int], Optional[str]], Any]
    seeded: bool = True
    #: the payload's ``observed`` flag records ``--obs`` (codec always
    #: observes and carries no flag)
    flags_observed: bool = True


#: bench name (its module under ``repro.bench``) -> how the runner drives it
BENCHES: Dict[str, _Bench] = {
    "hotpath": _Bench("BENCH_swap_hotpath", _hotpath, seeded=False),
    "delta": _Bench("BENCH_delta", _delta, seeded=False),
    "durability": _Bench("BENCH_durability", _durability, seeded=False),
    "codec": _Bench("BENCH_codec", _codec, flags_observed=False),
    "async_sched": _Bench("BENCH_async", _async_sched),
    "topology": _Bench("BENCH_topology", _topology),
    "tenancy": _Bench("BENCH_tenancy", _tenancy),
    "scenarios": _Bench("BENCH_scenarios", _scenarios),
}


def run_one(
    name: str,
    *,
    quick: bool = False,
    seed: Optional[int] = None,
    output: Optional[str] = None,
    obs: bool = False,
    obs_output: Optional[str] = None,
) -> List[Gate]:
    """Run one bench, write its report, print its table; return the
    gates it failed."""
    spec = BENCHES[name]
    bench = importlib.import_module(f"repro.bench.{name}")
    obs_path = (obs_output or f"{spec.stem}_obs.jsonl") if obs else None
    report = spec.run(bench, quick, seed, obs_path)
    if isinstance(report, dict):
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = report.to_json()
    print(bench.format_table(report))
    if obs_path is not None:
        print(f"wrote {obs_path}")
    output = output or f"{spec.stem}.json"
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {output}")
    payload = json.loads(text)
    failed = failed_gates(bench, payload)
    # with --obs the phase gates apply only to an observed payload, so
    # a run that lost its observability must not pass them by skipping
    observed = Gate("observed", "==", True)
    if obs and spec.flags_observed and not observed.holds(payload):
        failed.append(observed)
    for gate in failed:
        try:
            got = repr(gate.value(payload))
        except (LookupError, ValueError):
            got = "missing"
        print(f"FAILED gate {name}: {gate} (got {got})")
    print(f"{name}: {len(failed) or 'no'} gate(s) failed")
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench", description=__doc__.split("Usage::")[0]
    )
    parser.add_argument("name", choices=[*BENCHES, "all"])
    parser.add_argument("--quick", action="store_true", help="CI sizing")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the bench's own)",
    )
    parser.add_argument(
        "--output", default=None, help="JSON report path (default BENCH_*.json)"
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="attach observability: per-phase breakdowns plus a JSONL dump",
    )
    parser.add_argument(
        "--obs-output", default=None,
        help="JSONL dump path with --obs (default BENCH_*_obs.jsonl)",
    )
    arguments = parser.parse_args(argv)
    if arguments.name == "all":
        if arguments.output or arguments.obs_output:
            parser.error("all writes the default paths: drop --output/--obs-output")
        names = list(BENCHES)
    else:
        names = [arguments.name]
        if arguments.seed is not None and not BENCHES[arguments.name].seeded:
            parser.error(f"{arguments.name} takes no --seed")
    failed = 0
    for name in names:
        failed += len(
            run_one(
                name,
                quick=arguments.quick,
                seed=arguments.seed if BENCHES[name].seeded else None,
                output=arguments.output,
                obs=arguments.obs,
                obs_output=arguments.obs_output,
            )
        )
    return 1 if failed else 0
