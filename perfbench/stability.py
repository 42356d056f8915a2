"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on each workload, one run at a time, and
prints for every end-to-end metric its median and the distance between
the first and third quartile as a share of the median -- the figure the
bounds in ``BENCHMARK.json`` are checked against::

    python3 perfbench/stability.py --seeds 11-20 [--workloads swap_cycle_write]

Exits nonzero when a run fails or a spread (other than ``setup_s``'s)
reaches a third of its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.measure import median, relative_spread  # noqa: E402


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: List[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("11-20"))
    parser.add_argument("--workloads", nargs="*",
                        default=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED\n{child.stdout}{child.stderr}")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}" for name in bounds), flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            spread = relative_spread(series)
            steady = name == "setup_s" or spread < bounds[name] / 3.0
            status |= 0 if steady else 1
            print(f"{workload:<20} {name:<16} median {median(series):>12.6g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:.0%}  "
                  f"{'ok' if steady else 'TOO WIDE'}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
