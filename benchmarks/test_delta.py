"""Delta swap-out benchmark — object-granular deltas + pipelined fan-out.

Runs the two delta scenarios (fastpath-full, delta) on identical
skewed-write workloads (~10% of each cluster's members rewritten per
cycle, replication factor 3 over simulated 700 Kbps Bluetooth links),
writes ``BENCH_delta.json``, and asserts the bench's gates
(:func:`repro.bench.delta.gates`): at least a 3x reduction in bytes
carried on the links *and* a 2x reduction in simulated swap-out phase
cost.

Run:  pytest benchmarks/test_delta.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import runner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_delta.json"


def test_delta_swap(benchmark):
    failed = benchmark.pedantic(
        lambda: runner.run_one("delta", quick=True, output=str(OUTPUT)),
        rounds=1,
        iterations=1,
    )
    assert [str(gate) for gate in failed] == []
