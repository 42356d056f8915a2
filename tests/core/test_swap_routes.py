"""Post-conditions shared by every swap-out route, plus an ordered trace.

Each route below drives one cluster through a single ``swap_out`` that
takes that route: metadata-only no-op, drop-clean, reship, delta,
delta-to-full fallback, full (content turnover), full over a delta
chain (compaction), compress-local, degrade-pool and failover.  Whatever the route, afterwards:

* exactly one ``SwapOutEvent`` was emitted;
* the write-ahead journal holds no pending entry;
* the placement ledger's applied epoch equals the cluster epoch on
  every bound device;
* the fast path's retained holders are exactly the bindings;
* a swap-in round trip returns the same values.

Every store call, link transfer, journal and ledger write and bus event
of the whole scenario, through the swap-in, is also logged in order and
compared with ``tests/golden/routes.json``, so a refactor of the
swap-out pipeline that reorders or drops a side effect fails here.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List

import pytest

from repro import Space
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.degrade import DegradeLadderConfig
from repro.core.fastpath import FastPathConfig
from repro.devices.store import XmlStoreDevice
from repro.errors import TransportError
from repro.events import SwapOutEvent
from repro.policy.pressure import classify
from repro.resilience import ResilienceConfig, RetryPolicy
from tests import golden
from tests.helpers import build_chain, chain_values

ELEVATED = classify(0.25, 1.0, 0.0)  # COMPRESS_LOCAL
HIGH = classify(0.10, 1.0, 0.0)  # DROP_CLEAN
SID = 2
STORE_METHODS = (
    "has_room",
    "contains",
    "store",
    "store_stream",
    "store_delta",
    "fetch",
    "fetch_wire",
    "drop",
)


class DeadStore(XmlStoreDevice):
    """Advertises room, refuses every payload."""

    def store(self, key, xml_text):
        raise TransportError(f"{self.device_id}: out of range")

    def store_stream(self, key, frames, compression=None, codec=None):
        raise TransportError(f"{self.device_id}: out of range")


class NoDeltaStore(XmlStoreDevice):
    """A store predating the delta protocol."""

    store_delta = None  # type: ignore[assignment]


class Scenario:
    """A traced space: every side effect lands in ``self.log`` in order."""

    def __init__(
        self,
        flavor: str,
        *,
        stores: Dict[str, type],
        rf: int = 2,
        ladder: bool = False,
        **fastpath: Any,
    ) -> None:
        self.log: List[str] = []
        self.clock = SimulatedClock()
        self.space = Space("routes", heap_capacity=1 << 20, clock=self.clock)
        manager = self.space.manager
        for index, (device_id, cls) in enumerate(stores.items()):
            link = bluetooth_link(self.clock, name=device_id)
            link.on_transfer = self._on_transfer
            # distinct capacities give placement a deterministic order
            store = cls(device_id, capacity=(1 << 20) - index, link=link)
            self._trace_store(store)
            manager.add_store(store)
        resilience = manager.enable_resilience(
            ResilienceConfig(
                replication_factor=rf,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.05, jitter=0.0),
            )
        )
        for owner, names in (
            (resilience.journal, ("begin", "record_write", "commit", "abort")),
            (resilience.placement, ("record_swap_out", "record_verified")),
        ):
            for name in names:
                self._trace_method(owner, name, type(owner).__name__)
        manager.enable_fastpath(
            FastPathConfig(
                codec="binary" if "binary" in flavor else None,
                pipeline_channels=2 if "pipe" in flavor else 0,
                serve_swap_in_from_cache=False,
                **fastpath,
            )
        )
        self.ladder = (
            manager.enable_degrade_ladder(DegradeLadderConfig())
            if ladder
            else None
        )
        self.space.bus.subscribe_all(
            lambda event: self.log.append(event.describe())
        )
        self.handle = self.space.ingest(
            build_chain(12), cluster_size=4, root_name="h"
        )
        self.expected = list(range(12))

    def _on_transfer(self, link: Any, nbytes: int, elapsed: float) -> None:
        self.log.append(f"link {link.name} {nbytes} {elapsed!r}")

    def _trace_method(self, owner: Any, name: str, label: str) -> None:
        original = getattr(owner, name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            shown = [repr(arg) for arg in args if isinstance(arg, (str, int))]
            self.log.append(" ".join([label, name, *shown]))
            return original(*args, **kwargs)

        setattr(owner, name, traced)

    def _trace_store(self, store: Any) -> None:
        for name in STORE_METHODS:
            if getattr(store, name, None) is not None:
                self._trace_method(store, name, store.device_id)

    def cycle(self) -> None:
        self.space.swap_out(SID)
        self.space.swap_in(SID)

    def mutate(self) -> None:
        oid = min(self.space.clusters()[SID].oids)
        node = self.space._objects[oid]
        old = node.value
        node.value = old + 100
        self.expected[self.expected.index(old)] = node.value

    def snapshot(self) -> Dict[str, Any]:
        manager = self.space.manager
        record = manager.resilience.placement.get(SID)
        return {
            "clock": repr(self.clock.now()),
            "stats": asdict(manager.stats),
            "applied_epochs": dict(sorted(record.applied_epochs.items())),
            "at_rest": {
                store.device_id: sorted(store.keys())
                for store in manager._stores
            },
        }


def _noop(flavor):
    scenario = Scenario(flavor, stores={"a": XmlStoreDevice, "b": XmlStoreDevice})
    scenario.cycle()
    return scenario, "fastpath_noops"


def _dropclean(flavor):
    scenario = Scenario(
        flavor, stores={"a": XmlStoreDevice, "b": XmlStoreDevice}, ladder=True
    )
    scenario.cycle()
    scenario.ladder.assess = lambda: HIGH
    return scenario, "ladder_drop_clean"


def _reship(flavor):
    scenario = Scenario(
        flavor,
        stores={"a": XmlStoreDevice, "b": XmlStoreDevice},
        retain_remote_copies=False,
    )
    scenario.cycle()
    return scenario, "fastpath_reships"


def _delta(flavor):
    scenario = Scenario(
        flavor, stores={"a": XmlStoreDevice, "b": XmlStoreDevice}, delta=True
    )
    scenario.cycle()
    scenario.mutate()
    return scenario, "fastpath_delta_ships"


def _delta_fallback(flavor):
    scenario = Scenario(
        flavor, stores={"a": XmlStoreDevice, "b": NoDeltaStore}, delta=True
    )
    scenario.cycle()
    scenario.mutate()
    return scenario, "fastpath_delta_fallbacks"


def _full(flavor):
    scenario = Scenario(flavor, stores={"a": XmlStoreDevice, "b": XmlStoreDevice})
    scenario.cycle()
    scenario.mutate()
    return scenario, "encode_calls"


def _compaction(flavor):
    # a full rewrite over a delta chain: the chain's keys go stale
    scenario = Scenario(
        flavor,
        stores={"a": XmlStoreDevice, "b": XmlStoreDevice},
        delta=True,
        delta_max_chain=1,
    )
    scenario.cycle()
    scenario.mutate()
    scenario.cycle()
    scenario.mutate()
    return scenario, "fastpath_delta_compactions"


def _compress_local(flavor):
    scenario = Scenario(
        flavor, stores={"a": XmlStoreDevice, "b": XmlStoreDevice}, ladder=True
    )
    scenario.ladder.assess = lambda: ELEVATED
    return scenario, "ladder_compress_local"


def _degrade_pool(flavor):
    scenario = Scenario(flavor, stores={"a": DeadStore, "b": DeadStore})
    return scenario, "degraded_swaps"


def _failover(flavor):
    scenario = Scenario(
        flavor, stores={"a": DeadStore, "b": XmlStoreDevice}, rf=1
    )
    return scenario, "failovers"


ROUTES = {
    "noop": _noop,
    "dropclean": _dropclean,
    "reship": _reship,
    "delta": _delta,
    "delta_fallback": _delta_fallback,
    "full": _full,
    "compaction": _compaction,
    "compress_local": _compress_local,
    "degrade_pool": _degrade_pool,
    "failover": _failover,
}
FLAVORS = ("xml", "binary", "binary-pipe")


def run_route(route: str, flavor: str) -> Dict[str, Any]:
    """Drive ``route`` once, check its post-conditions, return the trace."""
    scenario, counter = ROUTES[route](flavor)
    space = scenario.space
    manager = space.manager
    before = getattr(manager.stats, counter)
    events: List[SwapOutEvent] = []
    unsubscribe = space.bus.subscribe(SwapOutEvent, events.append)
    space.swap_out(SID)
    unsubscribe()

    cluster = space.clusters()[SID]
    bindings = manager.bindings_for(SID)
    record = manager.resilience.placement.get(SID)
    assert getattr(manager.stats, counter) > before, counter
    assert len(events) == 1
    assert manager.resilience.journal.pending() == []
    assert bindings
    for holder in bindings:
        assert record.applied_epochs[holder.device_id] == cluster.epoch
    assert manager.fastpath.retained[SID][1] == bindings
    swapped_out = scenario.snapshot()

    space.swap_in(SID)
    assert chain_values(scenario.handle) == scenario.expected
    space.verify_integrity()
    return {"after_swap_out": swapped_out, "log": scenario.log}


def route_traces() -> Dict[str, Any]:
    return {
        f"{route}/{flavor}": run_route(route, flavor)
        for route in ROUTES
        for flavor in FLAVORS
    }


@pytest.fixture(scope="module")
def committed():
    return golden.load("routes")


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_postconditions_and_trace(committed, route, flavor):
    trace = golden.sim_only(run_route(route, flavor))
    assert trace == committed[f"{route}/{flavor}"]
