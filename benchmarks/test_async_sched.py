"""Async swap scheduler benchmark — overlap faults, prefetch, write-back.

Runs the fetch-bound pointer-chase workload (replication factor 3 over
five simulated 700 Kbps Bluetooth stores) three ways — legacy
synchronous, event-driven async, and the async scheduler forced serial
(``channels=1, prefetch=off``) — writes ``BENCH_async.json``, and
asserts the bench's gates (:func:`repro.bench.async_sched.gates`): at
least a 2x reduction in p95 fault-stall seconds, and the serial
configuration byte-identical to the legacy path.

Run:  pytest benchmarks/test_async_sched.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import runner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_async.json"


def test_async_sched(benchmark):
    failed = benchmark.pedantic(
        lambda: runner.run_one("async_sched", quick=True, output=str(OUTPUT)),
        rounds=1,
        iterations=1,
    )
    assert [str(gate) for gate in failed] == []
