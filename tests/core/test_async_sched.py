"""Behavioral tests for the event-driven async swap scheduler.

Each test builds a small fully-swapped-out pointer chain over simulated
Bluetooth stores and walks it, checking one scheduler behavior at a
time: speculation hits, the degrade ladder's veto, buffer demotion,
waste accounting, speculation's single attempt, backpressure,
write-back overlap, and the serial mode's inertness.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.sched import AsyncSchedConfig, SwapOpState
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.errors import TransportError
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from tests.helpers import build_chain, chain_values


def _space(stores: int = 3, nodes: int = 30, cluster_size: int = 5):
    """A chain of ``nodes`` fully swapped out across ``stores`` radios."""
    clock = SimulatedClock()
    space = Space("sched", heap_capacity=1 << 20, clock=clock)
    for index in range(stores):
        link = bluetooth_link(clock, name=f"bt-{index}")
        space.manager.add_store(
            XmlStoreDevice(f"p-{index}", capacity=1 << 20, link=link)
        )
    handle = space.ingest(
        build_chain(nodes), cluster_size=cluster_size, root_name="h"
    )
    for sid, cluster in sorted(space._clusters.items()):
        if cluster.swappable() and cluster.oids:
            space.manager.swap_out(sid)
    return space, clock, handle


# -- speculation -----------------------------------------------------------


def test_sequential_walk_prefetches_and_stalls_less_than_sync():
    sync_space, sync_clock, sync_handle = _space()
    walk_start = sync_clock.now()
    sync_values = chain_values(sync_handle)
    sync_stall = sync_clock.now() - walk_start

    space, clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()

    assert values == sync_values == list(range(30))
    assert sched.stats.prefetch_issued > 0
    assert sched.stats.prefetch_hits > 0
    # the blocking walk stalls for every link second; the scheduled walk
    # only stalls for time nothing else could hide
    stalled = (
        sched.stats.demand_stall_s
        + sched.stats.hit_stall_s
        + sched.stats.backpressure_stall_s
    )
    assert stalled < sync_stall
    assert 0.0 <= sched.overlap_ratio() <= 1.0


def test_prefetch_waste_ratio_accounts_for_unconsumed_buffers():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    chain_values(handle)
    sched.drain()
    assert 0.0 <= sched.stats.waste_ratio <= 1.0
    assert sched.stats.hit_ratio == pytest.approx(
        sched.stats.prefetch_hits / sched.stats.prefetch_issued
    )


def test_invalidate_turns_a_buffered_speculation_into_waste():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()  # one fault: speculation for the next clusters
    assert sched.in_flight_fetches() > 0
    target = next(iter(sched._speculative))
    op = sched._speculative[target]
    waste_before = sched.stats.prefetch_waste
    sched.invalidate(target, "swap-out")
    assert sched.stats.prefetch_waste == waste_before + 1
    assert target not in sched._speculative
    # the cancelled op may wait on the completion queue: it must not
    # keep the payload text alive there
    assert op.state is SwapOpState.CANCELLED
    assert op.error == "swap-out"
    assert op.payload is None


def test_stale_keyed_buffer_is_waste_not_a_hit():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()
    assert sched.in_flight_fetches() > 0
    target = next(iter(sched._speculative))
    # the cluster re-swapped under a new epoch since the speculation was
    # issued: its buffered payload must not satisfy the fault
    sched._speculative[target].key = "stale-epoch-key"
    location = space._clusters[target].location
    assert sched._consume_speculative(target, location) is None
    assert sched.stats.prefetch_waste == 1


def test_full_buffer_demotes_the_stalest_speculation():
    space, _clock, handle = _space(nodes=40, cluster_size=4)
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=4, prefetch=True, prefetch_depth=4,
                         max_speculative=1)
    )
    chain_values(handle)
    sched.drain()
    assert sched.stats.prefetch_demoted > 0
    assert len(sched._speculative) <= 1


class _FailingFetches(FlakyStore):
    """A :class:`FlakyStore` whose next ``failing[key]`` fetches of
    ``key`` raise a transport error."""

    def __init__(self, inner, injector) -> None:
        super().__init__(inner, injector)
        self.failing = {}

    def fetch(self, key: str) -> str:
        if self.failing.get(key):
            self.failing[key] -= 1
            raise TransportError(f"injected: fetch of {key} failed")
        return super().fetch(key)


def test_speculation_takes_one_attempt_and_demand_is_retried():
    clock = SimulatedClock()
    space = Space("sched", heap_capacity=1 << 20, clock=clock)
    manager = space.manager
    store = _FailingFetches(
        XmlStoreDevice(
            "p-0", capacity=1 << 20, link=bluetooth_link(clock, name="bt-0")
        ),
        FaultInjector(FaultPlan(), clock),
    )
    manager.add_store(store)
    manager.enable_resilience()
    handle = space.ingest(build_chain(30), cluster_size=5, root_name="h")
    sids = sorted(
        sid for sid, cluster in space._clusters.items()
        if cluster.swappable() and cluster.oids
    )
    for sid in sids:
        manager.swap_out(sid)
    sched = manager.enable_async_scheduler(
        channels=3, prefetch=True, prefetch_depth=1
    )
    predicted = space._clusters[sids[1]].location.key
    # the speculative fetch and the first demand attempt both fail
    store.failing[predicted] = 2

    assert handle.get_value() == 0  # faults the head; speculates on the next
    assert sched.stats.prefetch_issued == 1
    assert sched.stats.prefetch_failed == 1
    assert store.failing[predicted] == 1  # it fetched the predicted cluster
    assert manager.stats.retries == 0  # speculation gets no retry loop
    assert sids[1] not in sched._speculative

    assert chain_values(handle) == list(range(30))
    assert store.failing[predicted] == 0
    # the demand fault for the predicted cluster retried its fetch
    assert manager.stats.retries == 1
    assert sched.stats.prefetch_failed == 1
    space.verify_integrity()


# -- the degrade ladder always wins ----------------------------------------


def test_pressure_rung_stops_new_speculation():
    space, _clock, handle = _space()
    space.manager.enable_degrade_ladder()  # NORMAL = rung 0
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=3, prefetch=True,
                         prefetch_pressure_limit=0)
    )
    chain_values(handle)
    sched.drain()
    # with the limit at the ladder's current rung, speculation is vetoed
    # before a single fetch is issued
    assert sched.stats.prefetch_issued == 0


def test_pressure_sheds_buffered_speculation_and_frees_radios():
    space, clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()  # buffer some speculation
    buffered = sched.in_flight_fetches()
    assert buffered > 0
    sched.on_pressure(rung=1)
    assert sched.in_flight_fetches() == 0
    assert sched.stats.prefetch_cancelled == buffered
    # every shed op retired CANCELLED with the shed reason recorded
    cancelled = [
        op
        for op in sched.queue.pop_due(float("inf"))
        if op.state is SwapOpState.CANCELLED
    ]
    assert cancelled and all(op.error == "pressure" for op in cancelled)


def test_below_limit_rung_leaves_speculation_alone():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()
    buffered = sched.in_flight_fetches()
    sched.on_pressure(rung=0)  # NORMAL: below the default limit of 1
    assert sched.in_flight_fetches() == buffered
    assert sched.stats.prefetch_cancelled == 0


# -- backpressure ----------------------------------------------------------


def test_backpressure_waits_are_charged_to_the_stat():
    # two channels for three radios under an evicting walk: deferred
    # ships and drops keep both channels booked at fault instants, so
    # admission has to pace the app
    space, _clock, handle = _space(nodes=40, cluster_size=4)
    space.heap.capacity = space.heap.used + 400
    sched = space.manager.enable_async_scheduler(channels=2, prefetch=True)
    chain_values(handle)
    sched.drain()
    assert sched.stats.backpressure_stall_s > 0.0


def test_backpressure_can_be_disabled():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(
        AsyncSchedConfig(channels=3, prefetch=True, backpressure=False)
    )
    chain_values(handle)
    sched.drain()
    assert sched.stats.backpressure_stall_s == 0.0


# -- write-back and stale drops --------------------------------------------


def test_victim_writeback_rides_the_channels():
    space, clock, handle = _space(nodes=40, cluster_size=4)
    # clamp the heap to ~2 resident clusters: the walk must evict (and
    # re-ship) victims as it faults
    space.heap.capacity = space.heap.used + 400
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    values = chain_values(handle)
    sched.drain()
    assert values == list(range(40))
    assert sched.stats.writebacks > 0
    assert space.manager.stats.swap_outs > 0


def test_stale_copy_drops_are_deferred_onto_channels():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=3, prefetch=True)
    chain_values(handle)
    sched.drain()
    # every successful reload invalidates its remote copy off the fault
    # path: one INVALIDATE op per replica, none stalling the app
    assert sched.stats.stale_drops > 0


# -- serial mode -----------------------------------------------------------


def test_serial_mode_is_inert():
    space, _clock, handle = _space()
    sched = space.manager.enable_async_scheduler(channels=1, prefetch=False)
    assert sched.serial
    assert sched.config.serial
    values = chain_values(handle)
    sched.drain()
    assert values == list(range(30))
    assert sched.stats.prefetch_issued == 0
    assert sched.stats.backpressure_stall_s == 0.0
    # serial stale-copy drops run inline: no INVALIDATE op is scheduled
    dropped = []

    class Holder:
        device_id = "h"

        def drop(self, key):
            dropped.append(key)

    sched.drop_stale(0, ["k"], [Holder()])
    assert dropped == ["k"]
    assert sched.stats.stale_drops == 0
    # the op ledger still records lifecycles (fetches, reloads, drops)
    assert sched.stats.ops_issued > 0
    assert sched.stats.demand_fetches > 0


def test_every_fault_goes_through_the_default_serial_scheduler():
    space, _clock, handle = _space()
    manager = space.manager
    assert manager.fastpath is None
    values = chain_values(handle)
    assert values == list(range(30))
    sched = manager.sched
    assert sched.serial
    assert manager.stats.swap_ins > 0
    assert (
        sched.stats.demand_fetches
        == sched.stats.reloads
        == manager.stats.swap_ins
    )


def test_config_rejects_degenerate_values():
    with pytest.raises(ValueError):
        AsyncSchedConfig(channels=0)
    with pytest.raises(ValueError):
        AsyncSchedConfig(prefetch_depth=0)


def test_disable_drains_and_detaches():
    space, clock, handle = _space()
    space.manager.enable_async_scheduler(channels=3, prefetch=True)
    _ = handle.get_value()
    space.manager.disable_async_scheduler()
    assert space.manager.sched.serial
    assert not space.manager.feature_flags()["async_sched"]
    # nothing left in flight: the disable drained the channel pool
    values = chain_values(handle)
    assert values == list(range(30))
