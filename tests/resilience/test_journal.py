"""The write-ahead journal: detach strictly after acknowledge."""

import pytest

from repro.devices import InMemoryStore
from repro.errors import AllStoresUnreachableError, TransportError
from repro.resilience import (
    JournalEntryState,
    ResilienceConfig,
    RetryPolicy,
    SwapJournal,
)
from tests.helpers import build_chain, chain_values, make_space


def _resilient_space(**config_kwargs):
    space = make_space(with_store=False)
    config_kwargs.setdefault(
        "retry", RetryPolicy(max_attempts=2, base_delay_s=0.05, jitter=0.0)
    )
    config_kwargs.setdefault("degrade_to_local", False)
    space.manager.enable_resilience(ResilienceConfig(**config_kwargs))
    return space


class OrderAssertingStore(InMemoryStore):
    """Asserts the cluster is still resident when its payload arrives."""

    def __init__(self, device_id: str, space, sid: int) -> None:
        super().__init__(device_id)
        self._space = space
        self._sid = sid
        self.saw_resident = False

    def store(self, key: str, xml_text: str) -> None:
        # write-ahead invariant: the heap copy must still exist while
        # the store copy is in flight
        assert self._space.clusters()[self._sid].is_resident
        self.saw_resident = True
        super().store(key, xml_text)


def test_detach_happens_only_after_store_acknowledges():
    space = _resilient_space()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    store = OrderAssertingStore("witness", space, sid=2)
    space.manager.add_store(store)
    space.swap_out(2)
    assert store.saw_resident
    assert space.clusters()[2].is_swapped
    entry = space.manager.resilience.journal.last()
    assert entry.state is JournalEntryState.COMMITTED
    assert entry.writes == ["witness"]
    assert entry.sid == 2
    assert not space.manager.resilience.journal.pending()


class DeadStore(InMemoryStore):
    def store(self, key: str, xml_text: str) -> None:
        raise TransportError(f"{self.device_id}: out of range")


def test_failed_swap_out_aborts_the_entry_and_keeps_data_local():
    space = _resilient_space()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.manager.add_store(DeadStore("gone"))
    with pytest.raises(AllStoresUnreachableError):
        space.swap_out(2)
    journal = space.manager.resilience.journal
    entry = journal.last()
    assert entry.state is JournalEntryState.ABORTED
    assert entry.writes == []
    assert journal.stats.aborts == 1
    # nothing detached, nothing lost
    assert space.clusters()[2].is_resident
    assert chain_values(handle) == list(range(10))
    space.verify_integrity()


def test_commit_requires_an_acknowledged_write():
    journal = SwapJournal()
    entry = journal.begin(sid=7, key="k", epoch=1, xml_bytes=100)
    with pytest.raises(ValueError):
        journal.commit(entry)
    journal.record_write(entry, "pc")
    journal.commit(entry)
    assert entry.state is JournalEntryState.COMMITTED


def test_recover_journal_drops_orphaned_copies():
    space = _resilient_space()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    store = InMemoryStore("pc")
    space.manager.add_store(store)
    resilience = space.manager.resilience
    # simulate a hand-off that died between acknowledge and detach:
    # the payload landed, the journal knows, the cluster never swapped
    store.store("space:test/sid:2/epoch:1", "<swap-cluster/>")
    entry = resilience.journal.begin(
        sid=2, key="space:test/sid:2/epoch:1", epoch=1, xml_bytes=16
    )
    resilience.journal.record_write(entry, "pc")
    assert store.keys() == ["space:test/sid:2/epoch:1"]
    recovered = space.manager.recover_journal()
    assert recovered == 1
    assert store.keys() == []  # the orphan is gone
    assert entry.state is JournalEntryState.ABORTED
    assert space.manager.stats.journal_recoveries == 1


def test_recover_journal_commits_entries_whose_handoff_completed():
    space = _resilient_space()
    space.ingest(build_chain(10), cluster_size=5, root_name="h")
    store = InMemoryStore("pc")
    space.manager.add_store(store)
    location = space.swap_out(2)
    resilience = space.manager.resilience
    # forge a pending entry describing the swap that really happened
    entry = resilience.journal.begin(
        sid=2, key=location.key, epoch=location.epoch, xml_bytes=location.xml_bytes
    )
    resilience.journal.record_write(entry, "pc")
    recovered = space.manager.recover_journal()
    assert recovered == 0
    assert entry.state is JournalEntryState.COMMITTED
    # the live copy was NOT dropped
    assert location.key in store.keys()


def test_journal_truncation_is_counted_not_silent():
    journal = SwapJournal(history=2)
    for sid in range(4):
        entry = journal.begin(sid, f"k{sid}", 1, 10, digest="d")
        journal.record_write(entry, "s0")
        journal.commit(entry)
    # the two oldest completed entries fell off the bounded history
    assert journal.stats.truncated == 2
    assert len(journal.history()) == 2


def test_journal_truncation_emits_event_and_bumps_manager_stats():
    from repro.events import JournalTruncatedEvent

    space = make_space()
    space.manager.enable_resilience(ResilienceConfig(journal_history=2))
    space.ingest(build_chain(40), cluster_size=10, root_name="h")
    for _ in range(2):
        for sid in sorted(space.clusters()):
            cluster = space.clusters()[sid]
            if cluster.swappable() and cluster.oids:
                space.swap_out(sid)
        assert chain_values(space.get_root("h")) == list(range(40))
    # 8 completed hand-offs through a 2-entry history
    assert space.manager.stats.journal_truncated > 0
    event = space.bus.last(JournalTruncatedEvent)
    assert event is not None
    assert event.history == 2 and event.dropped == 1
    assert (
        space.manager.stats.journal_truncated
        == space.manager.resilience.journal.stats.truncated
    )


def test_journal_entries_carry_the_payload_digest():
    space = _resilient_space()
    space.manager.add_store(InMemoryStore("dev"))
    space.ingest(build_chain(10), cluster_size=10, root_name="h")
    sid = [s for s in space.clusters() if s != 0][0]
    location = space.swap_out(sid)
    (entry,) = space.manager.resilience.journal.history()
    assert entry.digest == location.digest
