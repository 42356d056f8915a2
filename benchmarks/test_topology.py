"""Topology benchmark — sharded placement at fleet scale, under churn.

Registers tens of thousands of cluster keys over a 60-store / 12-cell
fleet through the real observer hooks, kills whole cells, and measures
shard lookup cost, reparent latency, rebalance cost, and the headline
claim: losing any one full cell loses zero clusters.  Writes
``BENCH_topology.json`` and asserts the bench's gates
(:func:`repro.bench.topology.gates`).

Run:  pytest benchmarks/test_topology.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import runner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_topology.json"


def test_topology(benchmark):
    failed = benchmark.pedantic(
        lambda: runner.run_one("topology", quick=True, output=str(OUTPUT)),
        rounds=1,
        iterations=1,
    )
    assert [str(gate) for gate in failed] == []
