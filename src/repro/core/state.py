"""PJoin's per-stream join state (paper Section 3.1).

Each input stream owns one :class:`JoinStateSide` holding the four
structures the paper describes:

* a **hash table** of arrived-but-unpurged tuples, each bucket with a
  memory portion and a disk portion
  (:class:`~repro.storage.hash_table.PartitionedHashTable`);
* a **purge buffer** of tuples that the purge rules say should go, but
  that may still owe left-over joins to disk-resident tuples of the
  opposite stream — it is emptied by the disk-join component;
* a **punctuation set** of this stream's punctuations that have arrived
  but not yet been propagated (:class:`~repro.punctuations.store.PunctuationStore`);
* the **punctuation index** over this state
  (:class:`~repro.core.index.PunctuationIndex`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple as PyTuple

from repro.core.index import IndexBuildResult, PunctuationIndex
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import PunctuationStore, is_join_exploitable
from repro.storage.hash_table import PartitionedHashTable
from repro.storage.partition import StateEntry
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


class JoinStateSide:
    """All state PJoin keeps for one input stream."""

    def __init__(
        self,
        schema: Schema,
        join_field: str,
        n_partitions: int,
        side_name: str = "",
        table_factory: Optional[Callable[[], PartitionedHashTable]] = None,
    ) -> None:
        self.schema = schema
        self.join_field = join_field
        self.side_name = side_name
        # The skew layer passes a factory building its AdaptiveTable;
        # the default is the stock fixed-layout table.
        self.table = (
            table_factory() if table_factory is not None
            else PartitionedHashTable(n_partitions)
        )
        self.purge_buffer: List[StateEntry] = []
        self.store = PunctuationStore(schema, join_field)
        self.index = PunctuationIndex(self.store)
        # Punctuations that constrain non-join attributes cannot drive
        # purging; they are counted, not exploited.
        self.unexploitable_punctuations = 0
        self.duplicate_punctuations = 0
        self.tuples_inserted = 0
        self.tuples_discarded = 0
        self.tuples_buffered = 0

    # ------------------------------------------------------------------
    # Tuples
    # ------------------------------------------------------------------

    def insert(
        self,
        tup: Tuple,
        join_value: Any,
        now: float,
        hash_value: Optional[int] = None,
    ) -> StateEntry:
        """Add an arriving tuple to the hash table's memory portion."""
        self.tuples_inserted += 1
        return self.table.insert(tup, join_value, now, hash_value)

    def probe(
        self, join_value: Any, hash_value: Optional[int] = None
    ) -> PyTuple[int, List[StateEntry]]:
        """Probe the memory portion; see ``PartitionedHashTable.probe``."""
        return self.table.probe(join_value, hash_value)

    # ------------------------------------------------------------------
    # Punctuations
    # ------------------------------------------------------------------

    def add_punctuation(self, punct: Punctuation) -> Optional[int]:
        """Store an arriving punctuation; return its pid.

        Returns ``None`` when the punctuation is not exploitable (it
        constrains non-join attributes) or duplicates a stored one (an
        equal join pattern is already live) — both are tallied.
        """
        if not is_join_exploitable(punct, self.join_field):
            self.unexploitable_punctuations += 1
            return None
        join_pattern = punct.patterns[self.store.join_index]
        if self.store.has_equal_join_pattern(join_pattern):
            self.duplicate_punctuations += 1
            return None
        return self.store.add(punct)

    def covers(self, join_value: Any) -> bool:
        """``setMatch``: do this stream's punctuations cover the value?"""
        return self.store.covers_value(join_value)

    def retract_covering(self, join_value: Any) -> int:
        """Withdraw every stored punctuation covering *join_value*.

        The ``repair`` fault policy calls this when a tuple arrives in
        violation of an earlier punctuation: the promise was false, so
        it is removed from the punctuation set *and* the punctuation
        index.  Entries already tagged with a retracted pid are untagged
        (their ``pid`` reset to ``None``) so a later, equal punctuation
        re-counts them from scratch instead of inheriting stale counts.
        Returns the number of punctuations retracted.
        """
        doomed = self.store.covering_pids(join_value)
        if not doomed:
            return 0
        for pid in doomed:
            self.store.remove(pid)
            self.index.on_punctuation_removed(pid)
        doomed_set = set(doomed)
        for entry in self.iter_all_entries():
            if entry.pid in doomed_set:
                entry.pid = None
        return len(doomed)

    def build_index(self) -> IndexBuildResult:
        """One Index-Build run over this side's whole state."""
        return self.index.build_named(self.table, self.purge_buffer, self.join_dtype)

    # ------------------------------------------------------------------
    # Purge bookkeeping
    # ------------------------------------------------------------------

    def discard_entry(self, entry: StateEntry) -> None:
        """Drop a purged entry for good, maintaining the index count."""
        self.index.on_entry_discarded(entry)
        self.tuples_discarded += 1

    def buffer_entry(self, entry: StateEntry, now: float) -> None:
        """Move a purged entry to the purge buffer (disk joins pending).

        Stamping ``dts`` closes the entry's memory-residency interval so
        the timestamp duplicate-prevention rules keep working when the
        disk join finally pairs it with disk-resident tuples.
        """
        entry.dts = now
        self.purge_buffer.append(entry)
        self.tuples_buffered += 1

    def clear_purge_buffer(self) -> int:
        """Discard every purge-buffer entry (left-over joins are done)."""
        cleared = len(self.purge_buffer)
        for entry in self.purge_buffer:
            self.discard_entry(entry)
        self.purge_buffer.clear()
        return cleared

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def iter_all_entries(self) -> Iterator[StateEntry]:
        """Every entry this side is responsible for.

        Includes the purge buffer: a punctuation whose matches sit in
        the purge buffer must not be propagated yet, so the index counts
        them until :meth:`clear_purge_buffer` discards them.
        """
        yield from self.table.iter_all()
        yield from self.purge_buffer

    @property
    def join_dtype(self) -> Optional[type]:
        """The join field's declared type (``None`` when untyped)."""
        return self.schema.fields[self.store.join_index].dtype

    @property
    def memory_size(self) -> int:
        return self.table.memory_count

    @property
    def disk_size(self) -> int:
        return self.table.disk_count

    @property
    def total_size(self) -> int:
        """All tuples held for this stream (memory + disk + purge buffer)."""
        return self.table.total_count + len(self.purge_buffer)

    @property
    def punctuation_count(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return (
            f"JoinStateSide({self.side_name!r}, mem={self.memory_size}, "
            f"disk={self.disk_size}, buffered={len(self.purge_buffer)}, "
            f"punctuations={self.punctuation_count})"
        )
