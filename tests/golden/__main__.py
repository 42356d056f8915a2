"""Regenerate the goldens: ``PYTHONPATH=src python -m tests.golden``.

Runs every bench in :data:`tests.golden.BENCHES` through
``python -m repro bench`` in a scratch directory and writes the
wall-stripped result, then the per-route swap-out traces of
``tests/core/test_swap_routes.py``.  A failed gate does not stop the
regeneration (a wall gate can miss on a loaded host); it is reported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from tests.golden import BENCHES, GOLDEN_DIR, dump

SRC = GOLDEN_DIR.parents[1] / "src"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in BENCHES.items():
            output = Path(scratch) / f"{name}.json"
            run = subprocess.run(
                [sys.executable, "-m", "repro", "bench", *argv,
                 "--output", str(output)],
                cwd=scratch,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            if run.returncode != 0:
                print(run.stdout, end="")  # names the failed gates
            dump(name, json.loads(output.read_text()))
            print(f"wrote tests/golden/{name}.json")
    from tests.core.test_swap_routes import route_traces

    dump("routes", route_traces())
    print("wrote tests/golden/routes.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
