"""Per-layer metrics of a traced pass, from its spans and the program's
own counters (deltas over the pass).

Values that accumulate are divided by the pass's op count (units end in
``/op``) so runs of different length compare.  ``<layer>.self_share_pct``
is the layer's self time as a share of traced op wall time; the shares
of all layers add up to 100.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from perfbench.measure import median, nearest_rank
from perfbench.tracing import layer_self_times, summarize

LAYERS = (
    "runtime", "memory", "policy", "core", "wire", "comm", "devices", "resilience", "obs",
)

Metrics = Dict[str, Tuple[float, str]]


def _delta(start: Dict[str, Any], end: Dict[str, Any], *path: str) -> float:
    def pick(fingerprint: Dict[str, Any]) -> float:
        value: Any = fingerprint
        for key in path:
            value = value.get(key, 0) if isinstance(value, dict) else 0
        return value or 0

    return pick(end) - pick(start)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    workload: Any,
    state: Any,
    spans: List[list],
    start: Dict[str, Any],
    end: Dict[str, Any],
    ops: int,
) -> Metrics:
    """Every per-layer metric of one traced pass of ``ops`` ops."""
    table = summarize(spans)
    ops = max(1, ops)

    def span(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def calls(name: str, function: Optional[str] = None) -> float:
        entry = table.get(name, {})
        if function is None:
            return entry.get("calls", 0)
        return entry.get("functions", {}).get(function, 0)

    def per_op(value: float) -> float:
        return value / ops

    def counter(name: str) -> float:
        return _delta(start, end, "counters", name)

    metrics: Metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    for name in (
        "memory.lgc", "policy.victim", "policy.pressure", "core.swap_out",
        "core.swap_in", "core.ensure_room", "wire.encode", "wire.decode",
        "wire.verify", "wire.delta_apply", "wire.transcode", "devices.store",
        "devices.fetch", "devices.probe", "resilience.journal",
        "resilience.placement",
    ):
        put(f"{name}.calls", per_op(calls(name)), "count/op")
    for name in (
        "memory.lgc", "policy.victim", "policy.pressure", "core.swap_out",
        "core.swap_in", "wire.encode", "wire.decode", "wire.verify",
        "wire.delta_apply", "wire.transcode", "comm.compress",
        "resilience.journal", "resilience.placement",
    ):
        put(f"{name}.wall_s", per_op(span(name, "wall_s")), "s/op")
    for name in ("core.swap_out", "core.swap_in", "core.ensure_room",
                 "devices.store", "devices.fetch"):
        put(f"{name}.self_wall_s", per_op(span(name, "self_wall_s")), "s/op")
    for name in ("core.swap_out", "core.swap_in"):
        put(f"{name}.sim_s", per_op(span(name, "sim_s")), "sim_s/op")
    put("wire.encode.bytes", per_op(span("wire.encode", "bytes")), "B/op")

    op_wall = span("runtime.op", "wall_s")
    self_by_layer = layer_self_times(table)
    for layer in LAYERS:
        put(f"{layer}.self_share_pct",
            100.0 * _ratio(self_by_layer.get(layer, 0.0), op_wall), "%")

    put("runtime.self_wall_s", per_op(span("runtime.op", "self_wall_s")), "s/op")
    put("runtime.crossings", per_op(end["crossings"] - start["crossings"]), "count/op")
    put("runtime.live_proxies", end["live_proxies"], "count")
    put("memory.heap.peak_bytes", end["heap_peak"], "B")
    put("policy.ladder.escalations", counter("policy.ladder.escalations"), "count")

    put("core.sched.prefetch_hit_ratio",
        _ratio(_delta(start, end, "sched", "prefetch_hits"),
               _delta(start, end, "sched", "prefetch_issued")), "ratio")
    put("core.sched.backpressure_sim_s",
        per_op(_delta(start, end, "sched", "backpressure_stall_s")), "sim_s/op")
    # a ship is a swap-out that moved a payload (not a metadata no-op)
    ships = counter("swap.out.count") - counter("fastpath.noop.count")
    put("core.fastpath.delta_ratio", _ratio(counter("fastpath.delta.ships"), ships), "ratio")
    # full-payload replica writes all go through ``store_stream`` once the
    # fast path is on; the binary ones are counted by the manager
    put("core.fastpath.binary_ratio",
        _ratio(counter("fastpath.codec.binary_ships"), calls("devices.store", "store_stream")),
        "ratio")

    links = list(zip(start["links"], end["links"]))
    put("comm.link.transfers", per_op(sum(b[0] - a[0] for a, b in links)), "count/op")
    put("comm.link.bytes", per_op(sum(b[1] - a[1] for a, b in links)), "B/op")
    put("comm.link.sim_s", per_op(sum(b[2] - a[2] for a, b in links)), "sim_s/op")
    put("comm.pipeline.saved_sim_s", per_op(_delta(start, end, "pipeline", "saved_s")),
        "sim_s/op")

    put("devices.bytes_at_rest", _bytes_at_rest(state), "B")
    put("resilience.retries", counter("resilience.retry.count"), "count")
    put("resilience.failovers", counter("resilience.failover.count"), "count")

    put("obs.spans", per_op(calls("obs.span")), "count/op")
    put("obs.wall_s", per_op(
        span("obs.span", "self_wall_s") + span("obs.finish", "self_wall_s")
        + span("obs.refresh", "self_wall_s")), "s/op")

    stalls = end["stalls"][len(start["stalls"]):]
    put("fault_stall_sim_mean_s", _ratio(sum(stalls), len(stalls)), "sim_s")
    put("fault_stall_sim_p95_s", nearest_rank(sorted(stalls), 95.0) if stalls else 0.0,
        "sim_s")
    put("sim_s_per_op", per_op(end["clock"] - start["clock"]), "sim_s/op")
    put("store_bytes_per_user_byte", workload.store_bytes_per_user_byte(state), "ratio")
    return metrics


def _bytes_at_rest(state: Any) -> int:
    space = state.space
    return sum(
        store.used_by_prefix(f"{space.name}/")
        for store in space.manager.available_stores()
    )


def figure5_overhead(workload: Any, rounds: int = 10) -> Metrics:
    """``runtime.overhead_pct.<test>``: median wall of each Figure 5 test
    through the managed space against a NO-SWAP pass over raw objects
    (the paper's lower bound).  Managed and raw rounds alternate, so a
    change in host speed lands on both sides.  Zero for workloads that do
    not run Figure 5's tests."""
    import gc
    import time

    from repro.bench.figure5 import make_fixture

    from perfbench.workloads import FIGURE5_TESTS, Figure5Resident, run_test

    if not isinstance(workload, Figure5Resident):
        return {f"runtime.overhead_pct.{test}": (0.0, "%") for test in FIGURE5_TESTS}
    sides = {
        "managed": make_fixture(workload.objects, workload.cluster_size),
        "raw": make_fixture(workload.objects, None),
    }
    walls: Dict[str, Dict[str, List[float]]] = {side: {} for side in sides}
    for _ in range(rounds):
        for side, (handle, space) in sides.items():
            for test in FIGURE5_TESTS:
                gc.collect()
                started = time.perf_counter()
                run_test(test, handle, workload.objects, space)
                walls[side].setdefault(test, []).append(time.perf_counter() - started)
    result: Metrics = {}
    for test in FIGURE5_TESTS:
        base = median(walls["raw"][test])
        result[f"runtime.overhead_pct.{test}"] = (
            100.0 * (median(walls["managed"][test]) - base) / base, "%"
        )
    return result


def self_time_table(spans: List[list], ops: int) -> str:
    """Text table: per span name, calls and milliseconds per op, with
    self time summed per layer."""
    table = summarize(spans)
    ops = max(1, ops)
    total = table.get("runtime.op", {}).get("wall_s", 0.0) or 1.0
    lines = [
        f"{'span':<22} {'calls/op':>9} {'wall ms/op':>11} {'self ms/op':>11} {'self %':>7}",
    ]
    for name in sorted(table):
        entry = table[name]
        lines.append(
            f"{name:<22} {entry['calls'] / ops:>9.2f} {1e3 * entry['wall_s'] / ops:>11.4f} "
            f"{1e3 * entry['self_wall_s'] / ops:>11.4f} {100 * entry['self_wall_s'] / total:>7.2f}"
        )
    lines.append("")
    lines.append(f"{'layer':<22} {'self ms/op':>11} {'self %':>7}")
    for layer, seconds in sorted(layer_self_times(table).items()):
        lines.append(f"{layer:<22} {1e3 * seconds / ops:>11.4f} {100 * seconds / total:>7.2f}")
    return "\n".join(lines)
