"""The three benchmark workloads, driven through the library's public API.

Each workload is a closed loop with one caller: the next op starts after
the previous one returns, as with an application thread touching its own
objects.  Inputs come from the seed alone; the library only ever sees the
generated graph and the op plan.  Every op is checked by an oracle that
does not trust the library (expected values are computed from the raw
graph before ingest, or kept in a shadow model), and every run ends with
``space.verify_integrity()``.
"""

from __future__ import annotations

import gc
import random
from typing import Any, Dict, List, Optional

from repro.bench.async_sched import build_ring
from repro.bench.figure5 import TESTS as FIGURE5_TESTS
from repro.bench.figure5 import make_fixture, test_a1, test_a2, test_b1, test_b2
from repro.bench.workloads import build_list, zipf_indexes
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.ids import parse_swap_key
from repro.stats import counter_snapshot, snapshot

#: Figure 5's four traversal tests by name; one op runs them in FIGURE5_TESTS order.
FIGURE5_BODIES = {"A1": test_a1, "A2": test_a2, "B1": test_b1, "B2": test_b2}


class OracleError(Exception):
    """An op returned a result the oracle rejects."""


def run_test(test: str, handle: Any, objects: int, space: Optional[Space]) -> None:
    """Run one of Figure 5's tests (``repro.bench.figure5``) over the list
    at ``handle``.  The test asserts it walked all ``objects`` nodes; a
    wrong walk is an :class:`OracleError`.  ``space`` is None for the
    NO-SWAP list of raw objects."""
    try:
        FIGURE5_BODIES[test](handle, objects, space)
    except AssertionError as error:
        raise OracleError(str(error)) from error


def _bluetooth_stores(space: Space, clock: SimulatedClock, count: int) -> List[Any]:
    links = []
    for index in range(count):
        link = bluetooth_link(clock, name=f"bt-{index}")
        links.append(link)
        space.manager.add_store(
            XmlStoreDevice(f"peer-{index}", capacity=32 << 20, link=link)
        )
    return links


class State:
    """One set-up space plus what the oracle and the metrics need."""

    def __init__(self, space: Space, clock: Any, links: List[Any]) -> None:
        self.space = space
        self.clock = clock
        self.links = links
        self.ops = 0
        #: (wall-independent) simulated seconds of each faulting op
        self.fault_stalls: List[float] = []


class Workload:
    name = ""
    #: ops the determinism check replays on a fresh set-up
    prefix_ops = 1
    #: ops per wall second on the reference host (2 vCPUs); a run times
    #: ``seconds * ops_per_second`` ops, a count that does not depend on
    #: how fast the host happens to be
    ops_per_second = 1.0
    #: ops between two host-speed probes: about 60 ms of ops per probe
    probe_every = 1
    #: accounted bytes of one node (its ``@managed(size=...)``)
    node_bytes = 0

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def before_op(self, state: State) -> None:
        """Untimed preparation before each op."""

    def op(self, state: State) -> bool:
        """Run one op; True when it faulted a swapped cluster back in.
        Raises :class:`OracleError` on a wrong result."""
        raise NotImplementedError

    def finish(self, state: State) -> None:
        """End-of-run oracle; raises :class:`OracleError`."""
        state.space.verify_integrity()

    # -- measurements ----------------------------------------------------

    def fingerprint(self, state: State) -> Dict[str, Any]:
        """Every simulated-clock value and count the run produces.

        Identical inputs and op counts must give identical fingerprints:
        across set-ups in one process, across processes, and with or
        without the tracing wrappers installed.
        """
        space = state.space
        manager = space.manager
        telemetry = snapshot(space)
        result: Dict[str, Any] = {
            "ops": state.ops,
            "clock": state.clock.now(),
            "counters": counter_snapshot(manager.stats),
            "heap_used": telemetry.heap_used,
            "heap_peak": telemetry.heap_peak,
            "live_proxies": telemetry.live_proxies,
            "crossings": sum(record.crossings for record in telemetry.clusters),
            "epochs": [record.epoch for record in telemetry.clusters],
            "links": [
                [link.stats.transfers, link.stats.bytes_carried, link.stats.seconds_charged]
                for link in state.links
            ],
            "stalls": list(state.fault_stalls),
        }
        if manager.sched is not None:
            result["sched"] = dict(vars(manager.sched.stats))
        if manager.fastpath is not None and manager.fastpath.scheduler is not None:
            result["pipeline"] = dict(vars(manager.fastpath.scheduler.stats))
        return result

    def store_bytes_per_user_byte(self, state: State) -> float:
        """Bytes at rest on every store / accounted bytes of the clusters
        they hold copies of."""
        space = state.space
        clusters = space.clusters()
        at_rest = 0
        held = set()
        for store in space.manager.available_stores():
            at_rest += store.used_by_prefix(f"{space.name}/")
            for key in store.keys():
                held.add(parse_swap_key(key)[1])
        user = sum(
            len(clusters[sid].oids) * self.node_bytes
            for sid in held
            if sid in clusters
        )
        return at_rest / user if user else 0.0


class Figure5Resident(Workload):
    """The paper's Figure 5 list, fully resident: proxies and LGC only."""

    name = "figure5_resident"
    ops_per_second = 4.5
    objects = 10_000
    cluster_size = 50
    node_bytes = 64

    def setup(self, seed: int) -> State:
        # the paper's list has a fixed shape; the seed has nothing to vary
        handle, space = make_fixture(self.objects, self.cluster_size)
        state = State(space, space.clock, [])
        state.handle = handle
        return state

    def before_op(self, state: State) -> None:
        # dead proxies of the previous round, not this one (as
        # repro.bench.figure5.run_single does before each timed test)
        gc.collect()

    def op(self, state: State) -> bool:
        for test in FIGURE5_TESTS:
            run_test(test, state.handle, self.objects, state.space)
        collected = state.space.gc()
        if collected.objects_collected:
            raise OracleError(
                f"LGC collected {collected.objects_collected} reachable objects"
            )
        state.ops += 1
        return False


class SwapCycleWrite(Workload):
    """Mutate 10% of a Zipf-chosen cluster, then swap it out and in."""

    name = "swap_cycle_write"
    prefix_ops = 40
    ops_per_second = 58.0
    probe_every = 4
    objects = 2_000
    cluster_size = 50
    node_bytes = 64
    dirty_fraction = 0.10

    def setup(self, seed: int) -> State:
        clock = SimulatedClock()
        space = Space("swapcycle", heap_capacity=32 << 20, clock=clock)
        manager = space.manager
        manager.enable_resilience()
        manager.replication_factor = 3
        links = _bluetooth_stores(space, clock, 5)
        raw = build_list(self.objects)
        nodes = []
        node = raw
        while node is not None:
            nodes.append(node)
            node = node.next
        space.ingest(raw, cluster_size=self.cluster_size, root_name="head")
        state = State(space, clock, links)
        # one swap-cluster-0 handle per node: proxies the library patches
        # across every swap, so writes always reach the live copy
        state.handles = [space.wrap_for_root(node) for node in nodes]
        state.shadow = [node.index for node in nodes]
        members: Dict[int, List[int]] = {}
        for index, handle in enumerate(state.handles):
            members.setdefault(space.sid_of(handle), []).append(index)
        state.sids = sorted(members)
        state.members = [members[sid] for sid in state.sids]
        manager.enable_fastpath(
            FastPathConfig(codec="binary", delta=True, pipeline_channels=3)
        )
        manager.enable_observability()
        # pre-swap: the first full ship of every cluster, so ops measure
        # the steady state of delta chains against stored bases
        for sid in state.sids:
            space.swap_out(sid)
        for sid in state.sids:
            space.swap_in(sid)
        state.rng = random.Random(seed)
        state.zipf_seed = seed
        state.picks = []
        return state

    def _next_cluster(self, state: State) -> int:
        if not state.picks:
            chunk = state.ops // 4096
            state.picks = zipf_indexes(
                len(state.sids), 4096, seed=state.zipf_seed * 1_000_003 + chunk
            )[::-1]
        return state.picks.pop()

    def op(self, state: State) -> bool:
        cluster = self._next_cluster(state)
        members = state.members[cluster]
        count = max(1, int(round(len(members) * self.dirty_fraction)))
        rng = state.rng
        chosen = rng.sample(members, count)
        for index in chosen:
            value = rng.randrange(1 << 30)
            state.handles[index].index = value  # through the write barrier
            state.shadow[index] = value
        sid = state.sids[cluster]
        state.space.swap_out(sid)
        state.space.swap_in(sid)
        for index in chosen:
            got = state.handles[index].index
            if got != state.shadow[index]:
                raise OracleError(
                    f"node {index} reads {got} after its swap cycle, "
                    f"wrote {state.shadow[index]}"
                )
        state.ops += 1
        return False

    def finish(self, state: State) -> None:
        """No lost update: every value read back after a final swap-out
        and swap-in of every cluster matches the shadow model."""
        space = state.space
        clusters = space.clusters()
        for sid in state.sids:
            if not clusters[sid].is_swapped:
                space.swap_out(sid)
        for sid in state.sids:
            space.swap_in(sid)
        lost = [
            index
            for index, handle in enumerate(state.handles)
            if handle.index != state.shadow[index]
        ]
        if lost:
            raise OracleError(f"{len(lost)} lost updates, first at node {lost[0]}")
        super().finish(state)


class PressureChaseRead(Workload):
    """Chase a ring whose working set is far larger than the heap."""

    name = "pressure_chase_read"
    prefix_ops = 300
    ops_per_second = 700.0
    probe_every = 40
    objects = 2_000
    cluster_size = 5
    node_bytes = 192
    blob_bytes = 96
    jump_fraction = 0.15
    resident_clusters = 4
    cache_bytes = 16 << 10

    def setup(self, seed: int) -> State:
        clock = SimulatedClock()
        space = Space("chase", heap_capacity=64 << 20, clock=clock)
        manager = space.manager
        manager.enable_resilience()
        manager.replication_factor = 3
        links = _bluetooth_stores(space, clock, 5)
        # a payload cache of a few clusters, far below the ~380 KB working
        # set, so faults reload over the links instead of from local copies
        manager.enable_fastpath(FastPathConfig(cache_budget_bytes=self.cache_bytes))
        ring = build_ring(self.objects, self.blob_bytes, seed)
        # expected successors, read off the raw graph before the library
        # owns it
        state = State(space, clock, links)
        state.next_index = [0] * self.objects
        state.alt_index = [0] * self.objects
        node = ring
        for _ in range(self.objects):
            state.next_index[node.index] = node.next.index
            state.alt_index[node.index] = node.alt.index
            node = node.next
        state.node = space.ingest(
            ring, cluster_size=self.cluster_size, root_name="head"
        )
        del ring, node
        for sid, cluster in sorted(space.clusters().items()):
            if cluster.swappable() and cluster.oids:
                space.swap_out(sid)
        space.heap.capacity = space.heap.used + int(
            self.resident_clusters * self.cluster_size * self.node_bytes * 1.5
        )
        manager.enable_degrade_ladder()
        manager.enable_async_scheduler(channels=5, prefetch=True, prefetch_depth=4)
        state.expected = 0
        state.rng = random.Random(seed + 1)
        return state

    def op(self, state: State) -> bool:
        stats = state.space.manager.stats
        faults_before = stats.swap_ins
        started = state.clock.now()
        node = state.node
        got = node.index
        if got != state.expected:
            raise OracleError(f"step {state.ops} read node {got}, expected {state.expected}")
        if state.rng.random() < self.jump_fraction:
            state.node = node.alt
            state.expected = state.alt_index[state.expected]
        else:
            state.node = node.next
            state.expected = state.next_index[state.expected]
        state.ops += 1
        if stats.swap_ins > faults_before:
            state.fault_stalls.append(state.clock.now() - started)
            return True
        return False

    def finish(self, state: State) -> None:
        state.space.manager.sched.drain()
        super().finish(state)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Figure5Resident(), SwapCycleWrite(), PressureChaseRead())
}
