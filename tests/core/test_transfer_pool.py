"""The manager's one transfer-channel pool, ``manager.sched.transfers``.

Every mode switch (fast path on or off, async scheduler on or off) must
keep the simulated timeline that serial, pipelined and async ships each
produce, drain the pool it replaces, and leave the fast path's
``scheduler`` pointing at the pool that carries the traffic, which is
also the pool the metrics export.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import build_list
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from tests.helpers import build_chain, chain_values


def _replicated_list(nodes: int = 200, stores: int = 3, replicas: int = 3):
    """``nodes`` list nodes in clusters of 10 over ``stores`` Bluetooth
    stores, each cluster on ``replicas`` of them."""
    clock = SimulatedClock()
    space = Space("seq", heap_capacity=1 << 22, clock=clock)
    manager = space.manager
    manager.replication_factor = replicas
    for index in range(stores):
        manager.add_store(
            XmlStoreDevice(
                f"p-{index}",
                capacity=1 << 22,
                link=bluetooth_link(clock, name=f"bt-{index}"),
            )
        )
    space.ingest(build_list(nodes), cluster_size=10, root_name="head")
    sids = sorted(
        sid
        for sid, cluster in space.clusters().items()
        if cluster.swappable() and cluster.oids
    )
    return space, clock, sids


def test_mode_switches_keep_every_ship_timeline():
    space, clock, sids = _replicated_list()
    manager = space.manager
    manager.enable_fastpath(
        FastPathConfig(
            pipeline_channels=3,
            serve_swap_in_from_cache=False,
            retain_remote_copies=False,
        )
    )
    steps = [
        ("serial with pipeline", lambda: None),
        (
            "async",
            lambda: manager.enable_async_scheduler(channels=2, prefetch=False),
        ),
        ("serial again", manager.disable_async_scheduler),
        ("no fast path", manager.disable_fastpath),
    ]
    clocks = {}
    for name, switch in steps:
        switch()
        if manager.fastpath is not None:
            assert manager.fastpath.scheduler is manager.sched.transfers
        else:  # serial without a fast path: ships run inline
            assert manager.sched.transfers is None
        for sid in sids[:4]:
            space.swap_out(sid)
        after_outs = clock.now()
        for sid in sids[:4]:
            space.swap_in(sid)
        clocks[name] = (after_outs, clock.now())

    expected = {
        "serial with pipeline": (0.0, 1.02999),
        "async": (1.63877, 2.05426),
        "serial again": (2.7645, 3.63642),
        "no fast path": (4.41982, 5.28973),
    }
    assert clocks == {
        name: (pytest.approx(outs, abs=1e-5), pytest.approx(ins, abs=1e-5))
        for name, (outs, ins) in expected.items()
    }
    space.verify_integrity()


@pytest.mark.parametrize(
    "switch",
    [
        lambda manager: manager.enable_async_scheduler(
            channels=3, prefetch=False
        ),
        lambda manager: manager.disable_async_scheduler(),
    ],
    ids=["enable-again", "disable"],
)
def test_replacing_the_async_scheduler_drains_its_ships(switch):
    space, clock, sids = _replicated_list(nodes=300, replicas=1)
    manager = space.manager
    manager.enable_async_scheduler(channels=3, prefetch=False)
    for sid in sids[:12]:
        space.swap_out(sid)
    pool = manager.sched.transfers
    assert pool.in_flight()
    in_flight_until = max(pool._channel_free)
    assert clock.now() == 0.0

    switch(manager)

    # the ships land before the next read: the swap-in cannot read a
    # store whose write has not happened yet in simulated time
    assert clock.now() == pytest.approx(in_flight_until)
    assert not pool.in_flight()
    space.swap_in(sids[0])
    assert clock.now() > in_flight_until
    space.verify_integrity()


@pytest.mark.parametrize("pipeline_channels", [0, 2])
def test_metrics_export_the_pool_that_carries_the_traffic(pipeline_channels):
    clock = SimulatedClock()
    space = Space("sched", heap_capacity=1 << 20, clock=clock)
    manager = space.manager
    for index in range(3):
        manager.add_store(
            XmlStoreDevice(
                f"p-{index}",
                capacity=1 << 20,
                link=bluetooth_link(clock, name=f"bt-{index}"),
            )
        )
    handle = space.ingest(build_chain(30), cluster_size=5, root_name="h")
    obs = manager.enable_observability()
    sched = manager.enable_async_scheduler(channels=3, prefetch=True)
    if pipeline_channels:
        fastpath = manager.enable_fastpath(pipeline_channels=pipeline_channels)
        assert fastpath.scheduler is sched.transfers
    for sid, cluster in sorted(space.clusters().items()):
        if cluster.swappable() and cluster.oids:
            manager.swap_out(sid)
    assert chain_values(handle) == list(range(30))

    obs.refresh()
    live = sched.transfers.stats
    assert live.transfers > 0
    exported = obs.metrics.snapshot()
    assert exported["link.pipeline.transfers"]["value"] == live.transfers
    assert exported["link.pipeline.serial_s"]["value"] == live.serial_s
    assert exported["link.pipeline.saved_s"]["value"] == live.saved_s
