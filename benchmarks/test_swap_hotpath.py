"""Swap hot-path benchmark — clean-cluster fast path vs always-re-encode.

Runs the three hot-path scenarios (baseline, fastpath-clean,
fastpath-mutating) on identical workloads over the simulated 700 Kbps
Bluetooth link, writes ``BENCH_swap_hotpath.json``, and asserts the
bench's gates (:func:`repro.bench.hotpath.gates`): at least a 2x
reduction in simulated swap-out cost *and* encoder invocations for
unmodified clusters.

Run:  pytest benchmarks/test_swap_hotpath.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import runner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_swap_hotpath.json"


def test_swap_hotpath(benchmark):
    failed = benchmark.pedantic(
        lambda: runner.run_one("hotpath", quick=True, output=str(OUTPUT)),
        rounds=1,
        iterations=1,
    )
    assert [str(gate) for gate in failed] == []
