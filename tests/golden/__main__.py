"""Regenerate the goldens: ``PYTHONPATH=src python -m tests.golden``.

Runs every bench in :data:`tests.golden.BENCHES` through
``python -m repro bench`` in a scratch directory and writes the
wall-stripped result, then the metric records of the ``--quick --obs``
dumps of :data:`tests.golden.OBS_BENCHES`, then the per-route swap-out
traces of ``tests/core/test_swap_routes.py``, then the perfbench prefix
digests.  A failed gate does not stop the
regeneration (a wall gate can miss on a loaded host); it is reported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from tests.golden import (
    BENCHES,
    GOLDEN_DIR,
    OBS_BENCHES,
    dump,
    metric_records,
    perfbench_digests,
)

SRC = GOLDEN_DIR.parents[1] / "src"


def _bench(argv, scratch: str) -> None:
    """``python -m repro bench *argv`` in ``scratch``; a failed gate is
    printed, not raised."""
    run = subprocess.run(
        [sys.executable, "-m", "repro", "bench", *argv],
        cwd=scratch,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
    )
    if run.returncode != 0:
        print(run.stdout, end="")  # names the failed gates


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in BENCHES.items():
            output = Path(scratch) / f"{name}.json"
            _bench([*argv, "--output", str(output)], scratch)
            dump(name, json.loads(output.read_text()))
            print(f"wrote tests/golden/{name}.json")
        metrics = {}
        for name in OBS_BENCHES:
            obs_output = Path(scratch) / f"{name}_obs.jsonl"
            _bench(
                [name, "--quick", "--obs", "--output",
                 str(Path(scratch) / f"{name}_obs.json"),
                 "--obs-output", str(obs_output)],
                scratch,
            )
            metrics[name] = metric_records(obs_output)
        dump("obs_metrics", metrics)
        print("wrote tests/golden/obs_metrics.json")
    from tests.core.test_swap_routes import route_traces

    dump("routes", route_traces())
    print("wrote tests/golden/routes.json")
    dump("perfbench", perfbench_digests())
    print("wrote tests/golden/perfbench.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
