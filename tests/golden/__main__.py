"""Regenerate the goldens: ``PYTHONPATH=src python -m tests.golden``.

Runs every harness in :data:`tests.golden.BENCHES` through its own CLI
in a scratch directory and writes the wall-stripped result, then the
per-route swap-out traces of ``tests/core/test_swap_routes.py``.
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
            subprocess.run(
                [sys.executable, "-m", *argv, "--output", str(output)],
                cwd=scratch,
                env=env,
                check=True,
                stdout=subprocess.DEVNULL,
            )
            dump(name, json.loads(output.read_text()))
            print(f"wrote tests/golden/{name}.json")
    from tests.core.test_swap_routes import route_traces

    dump("routes", route_traces())
    print("wrote tests/golden/routes.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
