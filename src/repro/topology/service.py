"""The topology service: cells, colocated replication records, reparenting.

Model (after the Vitess topology split):

* The **shard table** (:mod:`repro.topology.shard`) is the small global
  layer — N records saying who leads and who mirrors each shard.
* **Cell replication records** (:class:`CellReplication`) are the big
  discovery layer, *colocated per cell*: each cell keeps its own index
  of which of its stores serve which shard (fed by the
  :class:`~repro.resilience.placement.PlacementMap` observer hooks).
  Records living in a down cell are unreadable until it heals — reads
  come back *partial*, never wrong — and losing one cell therefore
  never loses the graph: the other cells' records plus raw store
  inventory rebuild it (:meth:`TopologyService.rebuild`).
* **Reparenting** (:meth:`TopologyService.reparent`) re-points a
  shard's primary at the healthiest reachable in-sync replica — ranked
  by the shared failure-rate key (:func:`~repro.resilience.placement.
  health_rank`), never net success — bumps the shard's parent epoch,
  invalidates in-flight async ops for the shard's sids, and leaves
  deficit repair to the (now shard-aware) scrubber.  It is a no-op when
  the current primary is alive and reachable, so repeated churn
  converges instead of thrashing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.events import CellDownEvent, CellRecoveredEvent, ShardReparentedEvent
from repro.ids import parse_swap_key
from repro.resilience.placement import (
    health_rank,
    placement_group_of,
    plan_placement,
)
from repro.stats import metric
from repro.topology.shard import ShardTable, shard_of


class CellState(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass
class CellReplication:
    """One cell's colocated replication records.

    ``shards`` maps shard id -> device id -> how many placed sids that
    device currently serves for the shard (refcounted so forgetting one
    cluster does not unregister a device still serving others).  The
    record lives *with* the cell: while the cell is down it is dark —
    :meth:`TopologyService.cell_records` refuses to read it — which is
    exactly the partial-result regime reparenting and rebuild must
    tolerate.
    """

    cell: str
    state: CellState = CellState.UP
    stores: Set[str] = field(default_factory=set)
    shards: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def register(self, shard_id: int, device_id: str) -> None:
        holders = self.shards.setdefault(shard_id, {})
        holders[device_id] = holders.get(device_id, 0) + 1

    def unregister(self, shard_id: int, device_id: str) -> None:
        holders = self.shards.get(shard_id)
        if holders is None or device_id not in holders:
            return
        holders[device_id] -= 1
        if holders[device_id] <= 0:
            del holders[device_id]
        if not holders:
            del self.shards[shard_id]

    def devices_for(self, shard_id: int) -> List[str]:
        return sorted(self.shards.get(shard_id, ()))


@dataclass
class TopologyConfig:
    """Tuning for one :class:`TopologyService`."""

    #: Number of hash shards the sid space is folded onto.
    shards: int = 16
    #: Stores per shard (primary + replicas).  ``None`` follows the
    #: manager's replication target.
    replicas_per_shard: Optional[int] = None
    #: Force a scrub pass right after a reparent so the deficit the dead
    #: primary left behind is repaired immediately rather than at the
    #: next scheduled tick.
    auto_repair: bool = True


@dataclass
class TopologyStats:
    """The service's own counters (reparents, cell outages/recoveries
    and rebuilds are counted on ``ManagerStats``)."""

    reparent_noops: int = metric("topology.reparent.noops")
    partial_reads: int = metric("topology.reads.partial")
    ops_invalidated: int = metric("topology.ops.invalidated")
    last_reparent_latency_s: float = metric(
        "topology.reparent.last_latency_s", 0.0
    )
    total_reparent_latency_s: float = 0.0
    #: Replicas the scrubber shipped under topology routing (rebalance
    #: cost tracking for the bench).
    repair_replicas: int = metric("topology.repair.replicas")
    repair_bytes: int = metric("topology.repair.bytes")


class TopologyService:
    """Shard-aware placement + reparenting for one manager's fleet.

    Created through :meth:`~repro.core.manager.SwappingManager.
    enable_topology`; installs itself as the placement map's observer so
    the per-cell records track every replica-set change.
    """

    def __init__(self, manager: Any, config: TopologyConfig) -> None:
        if manager.resilience is None:
            from repro.errors import SwapError

            raise SwapError(
                "topology needs the resilience pipeline: call "
                "enable_resilience() before enable_topology()"
            )
        self._manager = manager
        self.config = config
        self.stats = TopologyStats()
        self.shard_table = ShardTable(config.shards)
        self._cells: Dict[str, CellReplication] = {}
        self._cell_of_device: Dict[str, str] = {}
        self.refresh_cells()
        self.rebalance()

    # -- plumbing ----------------------------------------------------------

    @property
    def _space(self) -> Any:
        return self._manager._space

    @property
    def _clock(self) -> Any:
        return self._manager._space.clock

    def shard_of(self, sid: int) -> int:
        return shard_of(sid, self.shard_table.num_shards)

    def replicas_per_shard(self) -> int:
        if self.config.replicas_per_shard is not None:
            return max(1, self.config.replicas_per_shard)
        return self._manager.target_replicas()

    # -- cells -------------------------------------------------------------

    def refresh_cells(self) -> None:
        """(Re)index the manager's stores into cells.

        New stores join their cell's record; unknown cells are created
        UP.  Existing cell state (UP/DOWN) is preserved — reachability
        changes flow through :meth:`tick`, not re-indexing.
        """
        for store in self._manager._stores:
            cell_name = placement_group_of(store)
            cell = self._cells.get(cell_name)
            if cell is None:
                cell = CellReplication(cell=cell_name)
                self._cells[cell_name] = cell
            device_id = store.device_id
            cell.stores.add(device_id)
            self._cell_of_device[device_id] = cell_name

    def cells(self) -> Dict[str, CellReplication]:
        return dict(self._cells)

    def cell_of(self, device_id: str) -> Optional[str]:
        return self._cell_of_device.get(device_id)

    def cell_records(self, cell_name: str) -> Optional[CellReplication]:
        """The cell's colocated records — ``None`` while the cell is down.

        Callers must treat ``None`` as a *partial read* (count it, skip
        it), mirroring a topology server whose cell-local storage is
        unreachable.
        """
        cell = self._cells.get(cell_name)
        if cell is None:
            return None
        if cell.state is CellState.DOWN:
            self.stats.partial_reads += 1
            return None
        return cell

    def live_cell_fraction(self) -> float:
        """Fraction of cells currently UP (1.0 for an empty fleet)."""
        if not self._cells:
            return 1.0
        up = sum(
            1 for cell in self._cells.values() if cell.state is CellState.UP
        )
        return up / len(self._cells)

    def _store_reachable(self, store: Any) -> bool:
        if getattr(store, "is_dead", False):
            return False
        if getattr(store, "is_partitioned", False):
            return False
        return True

    def _stores_by_id(self) -> Dict[str, Any]:
        return {store.device_id: store for store in self._manager._stores}

    def _reachable_ids(self) -> Set[str]:
        return {
            store.device_id
            for store in self._manager._stores
            if self._store_reachable(store)
        }

    # -- liveness sweep ----------------------------------------------------

    def tick(self) -> List[int]:
        """Recompute cell liveness from store reachability; returns the
        shards reparented as a consequence.

        A cell is DOWN when *every* store in it is dead, partitioned, or
        detached — one survivor keeps the cell's records readable.
        Transitions emit :class:`~repro.events.CellDownEvent` /
        :class:`~repro.events.CellRecoveredEvent` and a down cell
        triggers reparenting of every shard whose primary it housed.
        Idempotent: a cell already marked DOWN stays quiet.
        """
        stores_by_id = self._stores_by_id()
        reparented: List[int] = []
        for cell in self._cells.values():
            attached = [
                device_id
                for device_id in sorted(cell.stores)
                if device_id in stores_by_id
            ]
            alive = [
                device_id
                for device_id in attached
                if self._store_reachable(stores_by_id[device_id])
            ]
            if not alive and cell.state is CellState.UP:
                reparented.extend(self._mark_cell_down(cell, "no reachable store"))
            elif alive and cell.state is CellState.DOWN:
                self._mark_cell_recovered(cell)
        return reparented

    def _mark_cell_down(self, cell: CellReplication, reason: str) -> List[int]:
        cell.state = CellState.DOWN
        self._manager.stats.cell_outages += 1
        affected = [
            record.shard_id
            for record in self.shard_table.records()
            if record.primary is not None
            and self._cell_of_device.get(record.primary) == cell.cell
        ]
        self._space.bus.emit(
            CellDownEvent(
                space=self._space.name,
                cell=cell.cell,
                stores=tuple(sorted(cell.stores)),
                shards_affected=len(affected),
                reason=reason,
            )
        )
        reparented: List[int] = []
        for shard_id in affected:
            if self.reparent(shard_id, reason=f"cell {cell.cell} down"):
                reparented.append(shard_id)
        return reparented

    def _mark_cell_recovered(self, cell: CellReplication) -> None:
        cell.state = CellState.UP
        self._manager.stats.cell_recoveries += 1
        self._space.bus.emit(
            CellRecoveredEvent(
                space=self._space.name,
                cell=cell.cell,
                stores=tuple(sorted(cell.stores)),
            )
        )

    def cell_down(self, cell_name: str, reason: str = "declared down") -> List[int]:
        """Explicitly declare a cell down (operator action / churn hook)."""
        cell = self._cells.get(cell_name)
        if cell is None or cell.state is CellState.DOWN:
            return []
        return self._mark_cell_down(cell, reason)

    def cell_recovered(self, cell_name: str) -> None:
        """Explicitly declare a cell healed."""
        cell = self._cells.get(cell_name)
        if cell is not None and cell.state is CellState.DOWN:
            self._mark_cell_recovered(cell)

    # -- shard assignment --------------------------------------------------

    def rebalance(self) -> None:
        """(Re)spread shard holders across cells, round-robin.

        Deterministic: cells and stores are walked in sorted order, each
        shard claims ``replicas_per_shard()`` stores in distinct cells
        (wrapping only when there are fewer cells than the target), and
        successive shards start one cell later so load evens out.
        Existing primaries are kept when still reachable — rebalancing
        must not cause reparent storms.
        """
        stores_by_id = self._stores_by_id()
        cell_names = sorted(
            name
            for name, cell in self._cells.items()
            if cell.state is CellState.UP
            and any(
                device_id in stores_by_id
                and self._store_reachable(stores_by_id[device_id])
                for device_id in cell.stores
            )
        )
        if not cell_names:
            return
        stores_per_cell: Dict[str, List[str]] = {
            name: sorted(
                device_id
                for device_id in self._cells[name].stores
                if device_id in stores_by_id
                and self._store_reachable(stores_by_id[device_id])
            )
            for name in cell_names
        }
        rf = self.replicas_per_shard()
        for record in self.shard_table.records():
            keep_primary = (
                record.primary is not None
                and record.primary in stores_by_id
                and self._store_reachable(stores_by_id[record.primary])
            )
            holders: List[str] = [record.primary] if keep_primary else []
            used_cells = {
                self._cell_of_device[holder]
                for holder in holders
                if holder in self._cell_of_device
            }
            offset = record.shard_id
            lap = 0
            while len(holders) < rf and lap < rf:
                progressed = False
                for step in range(len(cell_names)):
                    if len(holders) >= rf:
                        break
                    cell_name = cell_names[(offset + step) % len(cell_names)]
                    if lap == 0 and cell_name in used_cells:
                        continue  # first lap: one holder per cell
                    pool = stores_per_cell[cell_name]
                    if not pool:
                        continue
                    pick = pool[
                        (record.shard_id // len(cell_names) + lap) % len(pool)
                    ]
                    if pick in holders:
                        continue
                    holders.append(pick)
                    used_cells.add(cell_name)
                    progressed = True
                if not progressed:
                    break
                lap += 1
            if not holders:
                continue
            if not keep_primary:
                record.primary = holders[0]
            record.replicas = [
                holder for holder in holders if holder != record.primary
            ]

    # -- routing -----------------------------------------------------------

    def select_for(self, sid: int, nbytes: int, count: int) -> List[Any]:
        """Stores for ``sid``'s shard: primary first, O(1) in key count.

        Holders that are unreachable or full are skipped; if the shard's
        own holders cannot cover ``count`` copies, the gap is filled by
        health-aware anti-affine planning over the remaining fleet (the
        shard record stays authoritative for *routing*; durability never
        waits on it).
        """
        record = self.shard_table.record_for(sid)
        stores_by_id = self._stores_by_id()
        resilience = self._manager.resilience
        chosen: List[Any] = []
        for device_id in record.holders():
            if len(chosen) >= count:
                break
            store = stores_by_id.get(device_id)
            if store is None or not self._store_reachable(store):
                continue
            if resilience is not None and not resilience.admits(device_id):
                continue
            try:
                if not store.has_room(nbytes):
                    continue
            except Exception:
                if resilience is not None:
                    resilience.record_failure(device_id)
                continue
            chosen.append(store)
        if len(chosen) < count:
            taken = {store.device_id for store in chosen}
            extras = plan_placement(
                [
                    store
                    for store in self._manager.available_stores()
                    if store.device_id not in taken
                ],
                nbytes,
                count - len(chosen),
                health=resilience.health if resilience is not None else None,
                on_probe_failure=(
                    (
                        lambda store: resilience.record_failure(
                            store.device_id
                        )
                    )
                    if resilience is not None
                    else None
                ),
            )
            chosen.extend(extras)
        return chosen

    # -- reparenting -------------------------------------------------------

    def reparent(self, shard_id: int, reason: str = "manual") -> bool:
        """Elect the healthiest reachable in-sync replica as primary.

        Returns True when the primary actually changed.  No-ops (False)
        when the incumbent is alive and reachable, or when no candidate
        survives — both keep repeated churn idempotent.  Election ranks
        candidates by the shared failure-rate key with the device id as
        the deterministic tie-break; candidates are drawn from the shard
        record *and* every readable cell's colocated records, so a down
        cell degrades the candidate pool (partial read) without blocking
        the election.
        """
        record = self.shard_table.record(shard_id)
        stores_by_id = self._stores_by_id()
        reachable = self._reachable_ids()
        resilience = self._manager.resilience
        incumbent = record.primary
        if (
            incumbent is not None
            and incumbent in reachable
            and (resilience is None or resilience.admits(incumbent))
        ):
            self.stats.reparent_noops += 1
            return False

        started = self._clock.now()
        candidates: Set[str] = {
            device_id for device_id in record.replicas if device_id in reachable
        }
        # widen through the surviving cells' records: replicas the global
        # record missed (e.g. scrub repairs landed during an outage)
        for cell_name in sorted(self._cells):
            cell = self.cell_records(cell_name)
            if cell is None:
                continue  # down cell: partial read, tolerated
            for device_id in cell.devices_for(shard_id):
                if device_id in reachable:
                    candidates.add(device_id)
        if incumbent is not None and incumbent not in reachable:
            candidates.discard(incumbent)
        if not candidates:
            # nobody in-sync and reachable: strike the dead incumbent so
            # routing falls through to plan_placement, try again later
            if incumbent is not None and incumbent not in reachable:
                record.remove(incumbent)
            return False

        def election_key(device_id: str) -> Tuple:
            if resilience is not None:
                rank = health_rank(resilience.health.of(device_id))
            else:
                rank = (0, 0.0)
            return (*rank, device_id)

        winner = min(candidates, key=election_key)
        if winner == incumbent:
            self.stats.reparent_noops += 1
            return False
        old = incumbent if incumbent is not None else ""
        if incumbent is not None and incumbent not in reachable:
            record.remove(incumbent)
        record.set_primary(winner)
        self._drain_shard_ops(shard_id, reason)
        latency = self._clock.now() - started
        self.stats.last_reparent_latency_s = latency
        self.stats.total_reparent_latency_s += latency
        self._manager.stats.shard_reparents += 1
        self._space.bus.emit(
            ShardReparentedEvent(
                space=self._space.name,
                shard_id=shard_id,
                from_device=old,
                to_device=winner,
                reason=reason,
                latency_s=latency,
            )
        )
        if self.config.auto_repair and resilience is not None:
            scrubber = getattr(resilience, "scrubber", None)
            if scrubber is not None:
                scrubber.tick(force=True)
        return True

    def _drain_shard_ops(self, shard_id: int, reason: str) -> None:
        """Invalidate in-flight async swap ops routed at the old primary."""
        sched = self._manager.sched
        resilience = self._manager.resilience
        if resilience is None:
            return
        for sid in resilience.placement.records():
            if self.shard_of(sid) == shard_id:
                if sid in sched._speculative:
                    self.stats.ops_invalidated += 1
                sched.invalidate(sid, reason=f"reparent: {reason}")

    # -- store churn hooks -------------------------------------------------

    def on_store_removed(
        self, device_id: str, *, dead: bool, reason: str
    ) -> List[int]:
        """Manager ``detach_store`` hook; returns shards reparented."""
        cell_name = self._cell_of_device.get(device_id)
        if dead and cell_name is not None:
            cell = self._cells.get(cell_name)
            if cell is not None:
                for shard_id, holders in list(cell.shards.items()):
                    if device_id in holders:
                        del holders[device_id]
                    if not holders:
                        del cell.shards[shard_id]
        led = self.shard_table.shards_led_by(device_id)
        for record in self.shard_table.records():
            if record.shard_id in led:
                continue
            if device_id in record.replicas:
                record.replicas.remove(device_id)
        reparented: List[int] = []
        for shard_id in led:
            if self.reparent(shard_id, reason=reason):
                reparented.append(shard_id)
            else:
                # no candidate yet: strike the leader so routing falls
                # through until rebalance/attach supplies one
                self.shard_table.record(shard_id).remove(device_id)
        self.tick()  # the departure may have darkened its whole cell
        return reparented

    def on_store_attached(self, store: Any) -> None:
        """Manager ``attach_store`` hook: index the store, heal its cell
        if it was dark, and offer the newcomer to under-filled shards."""
        self.refresh_cells()
        cell_name = placement_group_of(store)
        cell = self._cells.get(cell_name)
        if cell is not None and cell.state is CellState.DOWN:
            self._mark_cell_recovered(cell)
        rf = self.replicas_per_shard()
        device_id = store.device_id
        for record in self.shard_table.records():
            if len(record.holders()) >= rf or device_id in record.holders():
                continue
            holder_cells = {
                self._cell_of_device.get(holder)
                for holder in record.holders()
            }
            if cell_name in holder_cells and len(holder_cells) > 1:
                continue  # keep anti-affinity while other cells exist
            if record.primary is None:
                record.set_primary(device_id)
            else:
                record.add_replica(device_id)

    # -- placement map observer hooks --------------------------------------

    def on_record_swap_out(self, record: Any) -> None:
        shard_id = self.shard_of(record.sid)
        for device_id in record.replicas:
            self._register(shard_id, device_id)

    def on_forget(self, record: Any) -> None:
        shard_id = self.shard_of(record.sid)
        for device_id in record.replicas:
            self._unregister(shard_id, device_id)

    def on_replica_added(self, sid: int, device_id: str) -> None:
        self._register(self.shard_of(sid), device_id)

    def on_replica_removed(self, sid: int, device_id: str) -> None:
        self._unregister(self.shard_of(sid), device_id)

    def _register(self, shard_id: int, device_id: str) -> None:
        cell_name = self._cell_of_device.get(device_id)
        if cell_name is None:
            self.refresh_cells()
            cell_name = self._cell_of_device.get(device_id)
        if cell_name is None:
            return  # not a fleet store (e.g. the local fallback pool)
        self._cells[cell_name].register(shard_id, device_id)

    def _unregister(self, shard_id: int, device_id: str) -> None:
        cell_name = self._cell_of_device.get(device_id)
        if cell_name is not None:
            self._cells[cell_name].unregister(shard_id, device_id)

    # -- rebuild -----------------------------------------------------------

    def rebuild(self) -> Dict[str, int]:
        """Reconstruct the whole topology from what survives.

        Sources, in order: the surviving (UP) cells' colocated records,
        then raw store inventory — every reachable store's key list is
        parsed back to sids (:func:`~repro.ids.parse_swap_key`) and
        hashed onto shards.  Down cells contribute nothing (partial
        read) but cost nothing either: the point of colocating records
        per cell is that N-1 cells plus inventory are always enough.
        Primaries lost with a down cell are re-elected with the usual
        health ranking.  Returns counters for tests/benches.
        """
        self.refresh_cells()
        self.tick()
        stores_by_id = self._stores_by_id()
        reachable = self._reachable_ids()
        space_prefix = f"{self._space.name}/"

        # wipe per-cell indexes of UP cells; DOWN cells keep their (dark)
        # records untouched so healing restores them as-is
        surviving: Dict[int, Set[str]] = {}
        partial = 0
        for cell_name in sorted(self._cells):
            cell = self.cell_records(cell_name)
            if cell is None:
                partial += 1
                continue
            for shard_id, holders in cell.shards.items():
                surviving.setdefault(shard_id, set()).update(holders)

        inventoried = 0
        for device_id in sorted(reachable):
            store = stores_by_id[device_id]
            lister = getattr(store, "keys", None)
            if lister is None:
                continue
            try:
                inventory = list(lister())
            except Exception:
                continue
            seen_sids: Set[int] = set()
            for key in inventory:
                if not key.startswith(space_prefix):
                    continue
                try:
                    _, sid, _ = parse_swap_key(key)
                except ValueError:
                    continue
                seen_sids.add(sid)
            for sid in seen_sids:
                shard_id = self.shard_of(sid)
                if device_id not in surviving.get(shard_id, set()):
                    surviving.setdefault(shard_id, set()).add(device_id)
                    self._register(shard_id, device_id)
                    inventoried += 1

        reparented = 0
        for record in self.shard_table.records():
            holders = {
                device_id
                for device_id in surviving.get(record.shard_id, set())
                if device_id in reachable
            }
            stale = [
                device_id
                for device_id in record.holders()
                if device_id not in reachable
            ]
            for device_id in stale:
                record.remove(device_id)
            for device_id in sorted(holders):
                record.add_replica(device_id)
            if record.primary is None and self.reparent(
                record.shard_id, reason="rebuild"
            ):
                reparented += 1
        self.rebalance()
        self._manager.stats.topology_rebuilds += 1
        return {
            "cells_partial": partial,
            "inventory_replicas": inventoried,
            "reparented": reparented,
        }

    # -- introspection -----------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "shards": self.shard_table.num_shards,
            "cells": {
                name: {
                    "state": cell.state.value,
                    "stores": sorted(cell.stores),
                    "shards_tracked": len(cell.shards),
                }
                for name, cell in sorted(self._cells.items())
            },
            "live_cell_fraction": self.live_cell_fraction(),
            "table": self.shard_table.describe(),
        }
