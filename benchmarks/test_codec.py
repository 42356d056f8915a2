"""Binary wire-codec benchmark — framing vs canonical XML on the wire.

Runs the two codec scenarios (xml, binary) on identical mutating
hot-path workloads (every cycle dirties one member per cluster, so
every swap ships real payload), writes ``BENCH_codec.json``, and
asserts the bench's gates (:func:`repro.bench.codec.gates`): at least
a 2x reduction in combined encode+decode *wall* time, with the binary
path negotiated on every ship and never falling back.

Run:  pytest benchmarks/test_codec.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import runner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_codec.json"


def test_codec_wall_floor(benchmark):
    failed = benchmark.pedantic(
        lambda: runner.run_one("codec", quick=True, output=str(OUTPUT)),
        rounds=1,
        iterations=1,
    )
    assert [str(gate) for gate in failed] == []
