"""The write-ahead swap journal.

The dangerous moment of a swap-out is the hand-off: once the cluster is
detached from the heap, the stored XML is the *only* copy of that data.
The journal makes the ordering auditable and recoverable: an intent
record is written before the first byte is shipped, every store
acknowledgement is recorded, and the entry is committed only after the
cluster is detached with at least one acknowledged copy.  An operation
that dies between those points leaves a ``PENDING`` entry whose acked
writes name exactly the orphaned payloads — :meth:`repro.core.manager.
SwappingManager.recover_journal` drops them and aborts the entry.

The journal is in-process state (the simulation has no real crashes);
what it guarantees is the *ordering* invariant — detach strictly after
acknowledge — and a bounded, inspectable history of every hand-off.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional


class JournalEntryState(enum.Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class JournalEntry:
    """One swap-out hand-off, begin-to-commit."""

    sequence: int
    sid: int
    key: str
    epoch: int
    xml_bytes: int
    #: Canonical payload digest — what placement recovery verifies
    #: inventory copies against.  Empty for pre-digest entries.
    digest: str = ""
    #: True when the hand-off shipped a ``<swap-delta>`` document; the
    #: entry's ``digest``/``xml_bytes`` still describe the *applied*
    #: full payload, so recovery and placement verify exactly as for a
    #: full ship (stores resolve the chain server-side).
    delta: bool = False
    #: Epoch of the base payload the delta applies to (delta entries only).
    base_epoch: Optional[int] = None
    state: JournalEntryState = JournalEntryState.PENDING
    #: Device ids that acknowledged the payload, in ack order.
    writes: List[str] = field(default_factory=list)

    @property
    def acknowledged(self) -> bool:
        return bool(self.writes)


@dataclass
class JournalStats:
    begins: int = 0
    commits: int = 0
    aborts: int = 0
    #: Completed entries pushed out of the bounded history — once
    #: truncated they can no longer seed placement recovery.
    truncated: int = 0


class SwapJournal:
    """Bounded in-memory write-ahead journal for swap hand-offs."""

    def __init__(
        self,
        history: int = 256,
        on_truncate: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._sequence = 0
        self._history = history
        self._pending: List[JournalEntry] = []
        self._completed: Deque[JournalEntry] = deque(maxlen=history)
        #: Called with the number of entries dropped whenever retiring an
        #: entry pushes older completed entries out of the bounded history.
        self.on_truncate = on_truncate
        self.stats = JournalStats()

    def begin(
        self,
        sid: int,
        key: str,
        epoch: int,
        xml_bytes: int,
        digest: str = "",
        base_epoch: Optional[int] = None,
        delta: bool = False,
    ) -> JournalEntry:
        """Record the intent to ship ``sid``'s payload under ``key``."""
        self._sequence += 1
        entry = JournalEntry(
            sequence=self._sequence,
            sid=sid,
            key=key,
            epoch=epoch,
            xml_bytes=xml_bytes,
            digest=digest,
            delta=delta,
            base_epoch=base_epoch,
        )
        self._pending.append(entry)
        self.stats.begins += 1
        return entry

    def record_write(self, entry: JournalEntry, device_id: str) -> None:
        """A store acknowledged the full payload."""
        if entry.state is not JournalEntryState.PENDING:
            raise ValueError(f"journal entry {entry.sequence} is {entry.state.value}")
        entry.writes.append(device_id)

    def commit(self, entry: JournalEntry) -> None:
        """The cluster is detached; its stored copies are authoritative."""
        if entry.state is not JournalEntryState.PENDING:
            raise ValueError(f"journal entry {entry.sequence} is {entry.state.value}")
        if not entry.writes:
            raise ValueError(
                f"journal entry {entry.sequence} cannot commit without an "
                f"acknowledged write"
            )
        entry.state = JournalEntryState.COMMITTED
        self._retire(entry)
        self.stats.commits += 1

    def abort(self, entry: JournalEntry) -> None:
        """The swap-out failed before detach; copies (if any) are orphans."""
        if entry.state is not JournalEntryState.PENDING:
            return
        entry.state = JournalEntryState.ABORTED
        self._retire(entry)
        self.stats.aborts += 1

    # -- inspection --------------------------------------------------------

    def pending(self) -> List[JournalEntry]:
        """Entries begun but neither committed nor aborted (oldest first)."""
        return list(self._pending)

    def history(self) -> List[JournalEntry]:
        return list(self._completed)

    def last(self) -> Optional[JournalEntry]:
        if self._pending:
            return self._pending[-1]
        return self._completed[-1] if self._completed else None

    def _retire(self, entry: JournalEntry) -> None:
        try:
            self._pending.remove(entry)
        except ValueError:
            pass
        overflowing = len(self._completed) >= self._history
        self._completed.append(entry)
        if overflowing:
            # deque(maxlen=...) silently dropped the oldest entry; the
            # truncation must be loud — recovery can no longer see it
            self.stats.truncated += 1
            if self.on_truncate is not None:
                self.on_truncate(1)
