"""Serial-mode equivalence: an explicit serial scheduler equals the default.

Every manager starts with a serial swap scheduler (one channel, no
prefetch), and ``enable_async_scheduler(channels=1, prefetch=False)``
asks for exactly that mode.  These property-style tests run the same
seeded workload twice — once with the default scheduler, once with an
explicitly enabled serial one — across the bare pipeline, resilience
with mirrors, the delta/binary fast path and the degrade ladder, and
require byte-identical outcomes: every unified counter, the simulated
clock, cluster epochs, heap occupancy, and the emitted event stream.
Any divergence means the scheduler's state leaked into its results.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.stats import counter_snapshot
from tests.helpers import build_chain, chain_values


def _run_workload(
    *,
    explicit_serial: bool,
    nodes: int = 30,
    cluster_size: int = 5,
    stores: int = 3,
    clamp: int = 0,
    resilience: bool = False,
    replication: int = 1,
    mutate_seed: int = 0,
    fastpath: bool = False,
    ladder: bool = False,
):
    """One seeded walk; returns the full observable state fingerprint."""
    clock = SimulatedClock()
    space = Space("equiv", heap_capacity=1 << 20, clock=clock)
    manager = space.manager
    if explicit_serial:
        manager.enable_async_scheduler(channels=1, prefetch=False)
    if resilience:
        manager.enable_resilience()
        manager.replication_factor = replication
    if fastpath:
        # binary frames both ways and no cache: every reload decodes
        # the fetched frames
        manager.enable_fastpath(
            FastPathConfig(
                delta=True, codec="binary", serve_swap_in_from_cache=False
            )
        )
    if ladder:
        manager.enable_degrade_ladder()
    for index in range(stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        manager.add_store(
            XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link)
        )
    events = []
    space.bus.subscribe_all(
        lambda event: events.append((type(event).__name__, event.describe()))
    )
    handle = space.ingest(
        build_chain(nodes), cluster_size=cluster_size, root_name="h"
    )
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            manager.swap_out(sid)
    if clamp:
        space.heap.capacity = space.heap.used + clamp

    values = chain_values(handle)
    if mutate_seed:
        # a second pass that dirties objects and re-walks: exercises
        # re-ship, re-fetch and epoch bumps under the serial scheduler
        rng = random.Random(mutate_seed)
        cursor = handle
        while cursor is not None:
            if rng.random() < 0.3:
                cursor.set_value(cursor.get_value() + 1000)
            cursor = cursor.get_next()
        values = chain_values(handle)
    if fastpath:
        # cycle each resident cluster to a clean base, dirty one member
        # in place and swap it out again (a delta ship against the
        # retained base), then re-walk
        for sid, cluster in sorted(space._clusters.items()):
            if cluster.swappable() and cluster.oids and not cluster.is_swapped:
                manager.swap_out(sid)
                manager.swap_in(sid)
                node = space._objects[min(cluster.oids)]
                node.value = node.value + 1
                manager.swap_out(sid)
        values = chain_values(handle)

    manager.sched.drain()
    return {
        "values": values,
        "clock": clock.now(),
        "counters": counter_snapshot(manager.stats),
        "epochs": {
            str(sid): cluster.epoch
            for sid, cluster in sorted(space._clusters.items())
        },
        "heap": space.heap.used,
        "events": events,
    }


SHAPES = {
    "plain-walk": {},
    "evicting-walk": {"nodes": 40, "cluster_size": 4, "clamp": 400},
    "replicated": {"resilience": True, "replication": 2},
    "mutating-rewalk": {"mutate_seed": 7},
    "evicting-replicated": {
        "nodes": 40,
        "cluster_size": 4,
        "clamp": 400,
        "resilience": True,
        "replication": 2,
    },
    "fastpath-delta-binary": {
        "nodes": 40,
        "cluster_size": 4,
        "clamp": 400,
        "fastpath": True,
    },
    "degrade-ladder": {
        "nodes": 40,
        "cluster_size": 4,
        "clamp": 400,
        "mutate_seed": 7,
        "ladder": True,
    },
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_explicit_serial_scheduler_equals_the_default(shape):
    default = _run_workload(explicit_serial=False, **SHAPES[shape])
    serial = _run_workload(explicit_serial=True, **SHAPES[shape])
    assert serial["values"] == default["values"]
    assert serial["clock"] == default["clock"]
    assert serial["counters"] == default["counters"]
    assert serial["epochs"] == default["epochs"]
    assert serial["heap"] == default["heap"]
    assert serial["events"] == default["events"]


def test_full_async_mode_preserves_results_but_not_the_clock():
    """The async schedule may bend time, never data: same values, same
    epoch structure, strictly no more stalled seconds."""
    serial = _run_workload(explicit_serial=False)
    clock = SimulatedClock()
    space = Space("equiv", heap_capacity=1 << 20, clock=clock)
    for index in range(3):
        link = bluetooth_link(clock, name=f"bt-{index}")
        space.manager.add_store(
            XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link)
        )
    handle = space.ingest(build_chain(30), cluster_size=5, root_name="h")
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            space.manager.swap_out(sid)
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()
    assert values == serial["values"]
    assert space.manager.stats.swap_ins == serial["counters"]["swap.in.count"]
