"""Span recording around the calls into each layer, from outside the program.

The traced run wraps the public functions named in :func:`targets` at the
binding their caller resolves (``core/manager.py``, ``devices/store.py``
and ``core/degrade.py`` bind wire, comm and policy functions with
``from ... import``, so those module attributes are the ones replaced).
Each wrapper records one span -- name, wall start and end, parent span,
op id, simulated start and end -- into a list kept in memory; nothing is
written until the run ends.  :func:`install` returns the function that
puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# span record fields (a list per span keeps the wrapper cheap)
NAME, START, END, PARENT, OP, SIM_START, SIM_END, NBYTES, FUNC = range(9)

#: wrapped encoders whose output size feeds ``wire.encode.bytes``
_ENCODE_SIZE: Dict[str, Callable[[Any], int]] = {
    "encode_cluster_canonical": lambda result: len(result[0]),
    "encode_cluster_binary": lambda result: len(result[2]),
    "encode_cluster_delta": lambda result: len(result[0]),
    "encode_delta_binary": len,
}


class Recorder:
    """Keeps every span of a traced run in memory."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        size_of: Optional[Callable[[Any], int]] = None,
        func: str = "",
    ) -> Any:
        record = [
            name,
            0.0,
            0.0,
            self._stack[-1] if self._stack else -1,
            self.op,
            self.clock.now(),
            0.0,
            0,
            func,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            record[SIM_END] = self.clock.now()
            self._stack.pop()
        if size_of is not None:
            record[NBYTES] = size_of(result)
        return result

    def write_jsonl(self, path: str) -> None:
        """The span tree: one JSON object per span, parents by index."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": span[PARENT],
                            "op": span[OP],
                            "name": span[NAME],
                            "function": span[FUNC],
                            "start": span[START],
                            "end": span[END],
                            "sim_start": span[SIM_START],
                            "sim_end": span[SIM_END],
                        }
                    )
                    + "\n"
                )


def targets(manager: Any) -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) for every wrapped call site."""
    import repro.core.degrade as degrade
    import repro.core.manager as core_manager
    import repro.core.sched as sched
    import repro.devices.store as store
    import repro.memory.lgc as lgc
    import repro.resilience.journal as journal
    import repro.resilience.placement as placement
    from repro.obs.runtime import Observability
    from repro.obs.trace import Span, Tracer

    manager_cls = core_manager.SwappingManager
    device = store.XmlStoreDevice
    sites: List[Tuple[Any, str, str]] = [
        (lgc.LocalCollector, "collect", "memory.lgc"),
        (manager, "victim_selector", "policy.victim"),
        (degrade, "store_health_of", "policy.pressure"),
        (degrade, "classify", "policy.pressure"),
        (manager_cls, "swap_out", "core.swap_out"),
        (manager_cls, "swap_in", "core.swap_in"),
        (manager_cls, "ensure_room", "core.ensure_room"),
        (journal.SwapJournal, "begin", "resilience.journal"),
        (journal.SwapJournal, "record_write", "resilience.journal"),
        (journal.SwapJournal, "commit", "resilience.journal"),
        (journal.SwapJournal, "abort", "resilience.journal"),
        (placement, "plan_placement", "resilience.placement"),
        (device, "store", "devices.store"),
        (device, "store_stream", "devices.store"),
        (device, "store_delta", "devices.store"),
        (device, "fetch", "devices.fetch"),
        (device, "fetch_wire", "devices.fetch"),
        (device, "contains", "devices.probe"),
        (device, "digest", "devices.probe"),
        (store, "binary_to_canonical", "wire.transcode"),
        (store, "decode_delta_binary", "wire.decode"),
        (store, "digest_of_canonical", "wire.verify"),
        (store, "apply_cluster_delta", "wire.delta_apply"),
        (store, "compress_payload", "comm.compress"),
        (store, "decompress_payload", "comm.compress"),
        (store, "decode_body", "comm.compress"),
        (sched, "verify_payload", "wire.verify"),
        (Tracer, "span", "obs.span"),
        (Tracer, "record_span", "obs.span"),
        (Span, "finish", "obs.finish"),
        (Span, "__exit__", "obs.finish"),
        (Observability, "refresh", "obs.refresh"),
    ]
    for attribute in (
        "encode_cluster_canonical",
        "encode_cluster_binary",
        "encode_cluster_delta",
        "encode_delta_binary",
    ):
        sites.append((core_manager, attribute, "wire.encode"))
    for attribute, name in (
        ("decode_cluster", "wire.decode"),
        ("decode_cluster_binary", "wire.decode"),
        ("verify_payload", "wire.verify"),
        ("digest_of_canonical", "wire.verify"),
        ("apply_cluster_delta", "wire.delta_apply"),
        ("compress_body", "comm.compress"),
        ("compress_payload", "comm.compress"),
    ):
        sites.append((core_manager, attribute, name))
    return sites


def _wrap(
    recorder: Recorder,
    name: str,
    original: Callable[..., Any],
    size_of: Optional[Callable[[Any], int]],
) -> Callable[..., Any]:
    call = recorder.call
    func = getattr(original, "__name__", name)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return call(name, original, args, kwargs, size_of, func)

    return wrapper


def install(
    recorder: Recorder, sites: Iterable[Tuple[Any, str, str]]
) -> Callable[[], None]:
    """Wrap every site; returns the function that restores the originals.

    Originals are read from the owner's own ``__dict__`` (a module's,
    a class's or an instance's), so a restore puts back exactly what was
    there -- never an inherited attribute copied onto a subclass.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name in sites:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                _wrap(recorder, name, original, _ENCODE_SIZE.get(attribute)),
            )
    except BaseException:
        _restore(saved)
        raise
    return functools.partial(_restore, saved)


def _restore(saved: List[Tuple[Any, str, Any]]) -> None:
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)
    saved.clear()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never
    overlap and their durations simply add.
    """
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive wall/sim (outermost spans of the
    name only, so recursion is not counted twice), self wall, bytes, and
    calls per wrapped function.

    Only spans inside an op count; the op spans themselves are named
    ``runtime.op``.
    """
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span[OP] is None:
            continue
        name = span[NAME]
        entry = table.setdefault(
            name,
            {"calls": 0, "wall_s": 0.0, "self_wall_s": 0.0, "sim_s": 0.0, "bytes": 0,
             "functions": {}},
        )
        entry["calls"] += 1
        functions = entry["functions"]
        functions[span[FUNC]] = functions.get(span[FUNC], 0) + 1
        entry["self_wall_s"] += own[index]
        entry["bytes"] += span[NBYTES]
        if not _nested_in_same(spans, index):
            entry["wall_s"] += span[END] - span[START]
            entry["sim_s"] += span[SIM_END] - span[SIM_START]
    return table


def _nested_in_same(spans: List[list], index: int) -> bool:
    name = spans[index][NAME]
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_self_times(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self wall seconds per layer (the span name's first component)."""
    layers: Dict[str, float] = {}
    for name, entry in table.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_wall_s"]
    return layers
