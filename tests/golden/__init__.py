"""Committed simulated-clock bench results for the identity tests.

Each ``<name>.json`` here is the ``--quick`` output of one bench run
through ``python -m repro bench`` with every key containing ``wall``
removed:
host wall time jitters between runs, while everything measured on the
simulated clock (latencies, link bytes, counters, digests) is exact.
The identity tests replay the same workloads and require full-dict
equality against these files, so a refactor that changes any simulated
behaviour fails them.  ``routes.json`` holds the ordered side-effect
trace of each swap-out route (see ``tests/core/test_swap_routes.py``).
``obs_metrics.json`` holds, per bench in :data:`OBS_BENCHES`, the metric
records of its ``--quick --obs`` dump in file order: the numbers the
observability registry exports.  ``perfbench.json`` holds, per
workload and seed, the prefix digest ``perfbench/run.py`` prints as
``fingerprint``.

Regenerate with ``PYTHONPATH=src python -m tests.golden`` — only when a
change is *meant* to alter simulated behaviour, and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

GOLDEN_DIR = Path(__file__).resolve().parent

#: golden name -> the ``python -m repro bench`` arguments that produce
#: it (``--output`` added).
BENCHES: Dict[str, List[str]] = {
    "hotpath": ["hotpath", "--quick"],
    "delta": ["delta", "--quick"],
    "codec": ["codec", "--quick"],
    "async": ["async_sched", "--quick"],
    "durability": ["durability", "--quick"],
    "tenancy": ["tenancy", "--quick"],
    "scenarios": ["scenarios", "--quick", "--seed", "1"],
}

#: benches whose ``--quick --obs`` metric records make ``obs_metrics.json``
#: (together: the sched, pipeline, topology and tenant-label series plus
#: every ``ManagerStats`` counter)
OBS_BENCHES = ("async_sched", "delta", "topology", "tenancy")

#: seeds of the perfbench prefix digests in ``perfbench.json``
PERFBENCH_SEEDS = (1, 2)


def perfbench_digest(name: str, seed: int) -> str:
    """The prefix digest ``perfbench/run.py`` prints as ``fingerprint``:
    one set-up of workload ``name``, its prefix ops, then the digest of
    its fingerprint."""
    from perfbench import run
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(seed)
    run.Loop(workload, state).run(ops=workload.prefix_ops)
    return run.digest(workload.fingerprint(state))


def perfbench_digests() -> Dict[str, Dict[str, str]]:
    """workload -> seed -> :func:`perfbench_digest`, for every workload."""
    from perfbench.workloads import WORKLOADS

    return {
        name: {str(seed): perfbench_digest(name, seed) for seed in PERFBENCH_SEEDS}
        for name in WORKLOADS
    }


def metric_records(path: Any) -> List[Dict[str, Any]]:
    """The ``kind == "metric"`` records of an obs dump, in file order."""
    from repro.obs.export import load_dump

    return [record for record in load_dump(path) if record["kind"] == "metric"]


def strip_wall(value: Any) -> Any:
    """``value`` with every mapping key containing ``wall`` removed."""
    if isinstance(value, dict):
        return {
            key: strip_wall(item)
            for key, item in value.items()
            if "wall" not in key
        }
    if isinstance(value, list):
        return [strip_wall(item) for item in value]
    return value


def sim_only(value: Any) -> Any:
    """``strip_wall`` after a JSON round trip (tuples become lists, as
    in the committed files)."""
    return strip_wall(json.loads(json.dumps(value)))


def load(name: str) -> Dict[str, Any]:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def dump(name: str, report: Dict[str, Any]) -> None:
    text = json.dumps(strip_wall(report), indent=2, sort_keys=True)
    (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")
