"""Repo benchmark: object-swapping costs on the simulated and the host clock.

One workload per process::

    python3 perfbench/run.py --workload swap_cycle_write --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: an untraced pass of N ops, then
a pass of the same N ops on a fresh set-up with every layer call wrapped
(see ``tracing.py``); it reports the per-layer metrics, the tracing
overhead, and writes the span tree and per-layer table under
``perfbench/out/`` (one set of files per workload, replaced by each traced
run).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

All workloads, each in its own process, with every metric printed::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

It exits nonzero when any op fails or any oracle or determinism check
does not hold.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.measure import (  # noqa: E402
    median, nearest_rank, peak_rss_mb, probe, reference_seconds, tail,
)

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKERS = 5


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against any other copy of the library."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {source}: {error}")
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {source}")


def digest(fingerprint: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    ).hexdigest()


def op_count(workload: Any, seconds: float) -> int:
    """Ops that take ``seconds`` on the reference host.  A run times this
    many ops however fast the host is, so the tail rule always picks the
    same percentile."""
    return max(1, round(seconds * workload.ops_per_second))


class Loop:
    """A closed loop of ops on one set-up, with per-op wall times."""

    def __init__(self, workload: Any, state: Any) -> None:
        self.workload = workload
        self.state = state
        self.walls: List[float] = []
        self.faulted: List[bool] = []
        self.failures: List[str] = []
        self.probes: List[float] = []

    def run(self, ops: int, call: Optional[Any] = None, probe_every: int = 0) -> None:
        """Run ``ops`` ops, or up to the first failed one; the workload's
        untimed ``before_op`` precedes each.  With ``probe_every``, the
        host-speed probe also runs, untimed, before every that many ops."""
        op = self.workload.op
        before_op = self.workload.before_op
        state = self.state
        clock = time.perf_counter
        while not self.failures and len(self.walls) < ops:
            if probe_every and len(self.walls) % probe_every == 0:
                self.probes.append(probe())
            before_op(state)
            begin = clock()
            try:
                fault = op(state) if call is None else call(len(self.walls), op, state)
            except Exception as error:  # an op failure is a result, not a crash
                self.failures.append(f"op {len(self.walls)}: {type(error).__name__}: {error}")
                break
            self.walls.append(clock() - begin)
            self.faulted.append(fault)

    def finish(self) -> None:
        """The end-of-run oracle; a failure counts as one failed op."""
        try:
            self.workload.finish(self.state)
        except Exception as error:
            self.failures.append(f"final check: {type(error).__name__}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.walls) + (1 if self.failures else 0)


def _setup(workload: Any, seed: int) -> Any:
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - started


#: set-ups per worker (the run keeps the last) and host-speed probes
#: read right before each
SETUPS = 3
SETUP_PROBES = 3


def run_worker(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """One worker process's share of an untraced run: :data:`SETUPS`
    set-ups, the op prefix whose simulated results every worker must
    repeat exactly, then the timed loop and the end-of-run oracle."""
    setup_walls, setup_refs, state = [], [], None
    for _ in range(SETUPS):
        state = None  # free the previous set-up before the next one
        setup_probes = [probe() for _ in range(SETUP_PROBES)]
        state, setup_wall = _setup(workload, seed)
        setup_walls.append(setup_wall)
        setup_refs.append(reference_seconds([setup_wall], setup_probes))
    prefix = Loop(workload, state)
    prefix.run(ops=workload.prefix_ops)
    prefix_digest = digest(workload.fingerprint(state))
    timed = Loop(workload, state)
    gc.collect()
    start = workload.fingerprint(state)
    if not prefix.failures:
        timed.run(op_count(workload, seconds), probe_every=workload.probe_every)
    end = workload.fingerprint(state)
    timed.finish()
    return {
        "setup_wall_s": setup_walls,
        "setup_s": setup_refs,
        "prefix": prefix_digest,
        "walls": timed.walls,
        "faulted": timed.faulted,
        "probes": timed.probes,
        "stalls": end["stalls"][len(start["stalls"]):],
        "sim_s": end["clock"] - start["clock"],
        "link_bytes": sum(link[1] for link in end["links"])
        - sum(link[1] for link in start["links"]),
        "store_bytes_per_user_byte": workload.store_bytes_per_user_byte(state),
        "peak_rss_mb": peak_rss_mb(),
        "failures": prefix.failures + timed.failures,
        "attempted": prefix.attempted + timed.attempted,
    }


def _faulting(worker: Dict[str, Any]) -> List[float]:
    return [wall for wall, fault in zip(worker["walls"], worker["faulted"]) if fault]


def run_untraced(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """End-to-end metrics from :data:`WORKERS` worker processes run one
    after another, each timing an equal share of the run's ops.

    Wall metrics pool the ops of all workers; set-up times are medians
    over all workers' set-ups, ``peak_rss_mb`` over the workers.  On a
    shared host the speed of plain Python code drifts by 20% and more
    over minutes, and op and set-up walls follow it.  ``ops_per_ref_s``
    and ``setup_s`` take that drift out: they are in seconds of the
    reference host, each wall scaled by ``PROBE_REFERENCE_S`` over the
    median of the host-speed probes run between the worker's ops or right
    before the set-up.  ``ops_per_s`` and ``setup_wall_s`` are the same
    figures as measured.  Every worker replays the same op prefix, whose
    simulated values and counts must be bit-identical across the workers.
    """
    workers = []
    for _ in range(WORKERS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
             "--seed", str(seed), "--seconds", repr(seconds / WORKERS), "--worker"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if child.returncode != 0:
            raise SystemExit(f"perfbench: worker failed\n{child.stderr}")
        workers.append(json.loads(child.stdout.strip().splitlines()[-1]))

    walls = [wall for worker in workers for wall in worker["walls"]]
    fault_walls = [wall for worker in workers for wall in _faulting(worker)]
    stalls = [stall for worker in workers for stall in worker["stalls"]]
    ops = max(1, len(walls))
    failures = [failure for worker in workers for failure in worker["failures"]]
    attempted = sum(worker["attempted"] for worker in workers)
    probes = [value for worker in workers for value in worker["probes"]]
    ref_seconds = sum(reference_seconds(worker["walls"], worker["probes"]) for worker in workers)
    percentile, tail_s = tail(walls) if walls else (50.0, 0.0)
    metrics = {
        "setup_s": (median([value for worker in workers for value in worker["setup_s"]]), "s"),
        "setup_wall_s": (
            median([value for worker in workers for value in worker["setup_wall_s"]]), "s"),
        "ops_per_ref_s": (len(walls) / (ref_seconds or 1.0), "1/ref_s"),
        "ops_per_s": (len(walls) / (sum(walls) or 1.0), "1/s"),
        "host_probe_ms": (median(probes) * 1e3, "ms"),
        "op_wall_p50_ms": (median(walls) * 1e3, "ms"),
        "op_wall_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (median([worker["peak_rss_mb"] for worker in workers]), "MiB"),
        "error_rate": (len(failures) / max(1, attempted), "ratio"),
        "sim_s_per_op": (sum(worker["sim_s"] for worker in workers) / ops, "sim_s"),
        "link_bytes_per_op": (sum(worker["link_bytes"] for worker in workers) / ops, "B"),
        "store_bytes_per_user_byte": (
            median([worker["store_bytes_per_user_byte"] for worker in workers]), "ratio"),
    }
    notes = [f"op_wall_tail_ms is p{percentile:g} of {len(walls)} ops in {WORKERS} workers"]
    if fault_walls:
        fault_percentile, fault_tail = tail(fault_walls)
        metrics.update(
            {
                "fault_stall_sim_mean_s": (sum(stalls) / len(stalls), "sim_s"),
                "fault_stall_sim_p95_s": (nearest_rank(sorted(stalls), 95.0), "sim_s"),
                "fault_wall_p50_ms": (median(fault_walls) * 1e3, "ms"),
                "fault_wall_tail_ms": (fault_tail * 1e3, "ms"),
            }
        )
        notes.append(
            f"fault_wall_tail_ms is p{fault_percentile:g} of {len(fault_walls)} faulting ops"
        )
    prefixes = {worker["prefix"] for worker in workers}
    problems = []
    if len(prefixes) != 1:
        problems.append("worker processes gave different simulated results for one seed")
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures + problems,
        "correct": not failures and not problems,
        "fingerprint": sorted(prefixes)[0],
    }


def run_traced(workload: Any, seed: int, seconds: float, out_dir: str) -> Dict[str, Any]:
    """Per-layer metrics: an untraced pass of N ops, then the same N ops
    traced on a fresh set-up.  The two passes' simulated values and
    counts must match exactly."""
    from perfbench import layers
    from perfbench.tracing import Recorder, install, targets

    state, _ = _setup(workload, seed)
    plain = Loop(workload, state)
    plain_start = workload.fingerprint(state)
    plain.run(op_count(workload, seconds / 3.0))
    plain_fp = workload.fingerprint(state)
    plain.finish()
    del state
    ops = len(plain.walls)

    state, _ = _setup(workload, seed)
    recorder = Recorder(state.clock)
    traced = Loop(workload, state)
    traced_start = workload.fingerprint(state)

    def call(index: int, op: Any, op_state: Any) -> Any:
        recorder.op = index
        return recorder.call("runtime.op", op, (op_state,), {})

    restore = install(recorder, targets(state.space.manager))
    try:
        traced.run(ops, call=call)
    finally:
        restore()
    recorder.op = None
    traced_fp = workload.fingerprint(state)
    metrics = layers.per_layer(workload, state, recorder.spans, traced_start, traced_fp, ops)
    traced.finish()

    problems = []
    if digest(plain_start) != digest(traced_start) or digest(plain_fp) != digest(traced_fp):
        problems.append("tracing changed a simulated value or a count")
    untraced_p50 = median(plain.walls)
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (median(traced.walls) - untraced_p50) / untraced_p50 if untraced_p50 else 0.0,
        "%",
    )
    metrics.update(layers.figure5_overhead(workload))
    failures = plain.failures + traced.failures
    metrics["error_rate"] = (
        len(failures) / max(1, plain.attempted + traced.attempted),
        "ratio",
    )
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, workload.name)
    recorder.write_jsonl(stem + "-spans.jsonl")
    with open(stem + "-layers.json", "w", encoding="utf-8") as handle:
        json.dump(
            {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
            handle,
            indent=1,
        )
    with open(stem + "-layers.txt", "w", encoding="utf-8") as handle:
        handle.write(layers.self_time_table(recorder.spans, ops) + "\n")
    return {
        "metrics": metrics,
        "notes": [f"traced {ops} ops; spans and per-layer tables in {stem}-*"],
        "attempted": plain.attempted + traced.attempted,
        "failed": len(failures),
        "failures": failures + problems,
        "correct": not failures and not problems,
        "fingerprint": digest(traced_fp),
    }


def _emit(result: Dict[str, Any], names: List[str], workload: str) -> None:
    metrics = result["metrics"]
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{workload:<20} {name:<36} {value:>16.6g} {unit}")
    for note in result["notes"]:
        print(f"{workload:<20} {note}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"fingerprint {result['fingerprint']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names
                },
            }
        ),
        flush=True,
    )


def _declared(key: str) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[key]]


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a child process of its own (so ``peak_rss_mb`` is
    that workload's alone); prints every line the children print."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        summary = json.loads(lines[-1]) if child.returncode == 0 and lines else None
        if summary is None or not summary["correct"] or summary["failed"]:
            print(f"{name}: FAILED (exit {child.returncode})")
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        raise SystemExit("perfbench: no BENCHMARK.json at the checkout root")
    if sys.flags.optimize:
        raise SystemExit("perfbench: run without -O; the Figure 5 oracle is an assert")
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.worker:
        print(json.dumps(run_worker(workload, args.seed, args.seconds)))
        return 0
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds, OUT_DIR)
        names = _declared("per_layer")
    else:
        result = run_untraced(workload, args.seed, args.seconds)
        names = _declared("end_to_end")
    _emit(result, names, workload.name)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
