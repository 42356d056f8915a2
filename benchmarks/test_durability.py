"""Durability benchmark — recovery cost after killing 1..k of n stores.

Swaps a workload out at ``replication_factor=3`` across five stores,
kills an increasing number of them with data loss, and measures the
scrubber's recovery: simulated seconds and payload bytes re-replicated
until full replication returns.  Writes ``BENCH_durability.json`` and
asserts the bench's gates (:func:`repro.bench.durability.gates`): zero
clusters lost for every kill count below the replication factor.

Run:  pytest benchmarks/test_durability.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import runner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_durability.json"


def test_durability(benchmark):
    failed = benchmark.pedantic(
        lambda: runner.run_one("durability", quick=True, output=str(OUTPUT)),
        rounds=1,
        iterations=1,
    )
    assert [str(gate) for gate in failed] == []
