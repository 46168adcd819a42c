"""The incrementally-maintained punctuation index (paper Section 3.5).

The index arranges state data by punctuations so propagation never
re-evaluates a (tuple, punctuation) pair:

* every stored punctuation has a ``pid`` (its store id) and a **count**
  of matching tuples currently residing in the same state (Figure 2 (a));
* every state tuple carries the ``pid`` of the *first-arrived*
  punctuation it matches, or ``None`` (Figure 2 (b));
* an index-build run evaluates only tuples whose ``pid`` is ``None``
  against only punctuations not yet used for indexing — which is
  correct because a valid punctuated stream never delivers a tuple
  matching an *earlier* punctuation, so older punctuations can never
  match newer tuples;
* purging a tuple decrements its punctuation's count; when a count
  reaches zero, Theorem 1 says the punctuation is safe to propagate.

A run need not walk the state to find those tuples.  When the new
punctuations are constants and enumerations (see
:meth:`~repro.punctuations.store.PunctuationStore.values_since`),
:meth:`PunctuationIndex.build_named` visits only the entries holding a
value they name.  The index keeps the number of tagged entries, so the
run still reports the full walk's ``scanned`` and ``unindexed`` counts
to the cost model; other patterns take the walk of
:meth:`PunctuationIndex.build`.

One :class:`PunctuationIndex` exists per input stream; it indexes that
stream's own state against that stream's own punctuations.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Set, Tuple as PyTuple

from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import PunctuationStore
from repro.storage.hash_table import PartitionedHashTable
from repro.storage.partition import StateEntry


class IndexBuildResult:
    """Statistics of one index-build run (feeds the cost model)."""

    __slots__ = ("scanned", "unindexed", "fresh_punctuations", "newly_indexed")

    def __init__(
        self, scanned: int, unindexed: int, fresh_punctuations: int, newly_indexed: int
    ) -> None:
        self.scanned = scanned
        self.unindexed = unindexed
        self.fresh_punctuations = fresh_punctuations
        self.newly_indexed = newly_indexed


class PunctuationIndex:
    """Counts of state-resident matches per punctuation, per side."""

    def __init__(self, store: PunctuationStore) -> None:
        self.store = store
        self._counts: Dict[int, int] = {}
        # pids the index builder has processed (``p.indexed`` in the
        # paper's Figure 3); only these have meaningful counts.
        self._indexed_pids: Set[int] = set()
        self._cursor = 0
        self.build_runs = 0
        # Entries tagged with a live pid: the sum of the counts.
        self.tagged = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(self, entries: Iterable[StateEntry]) -> IndexBuildResult:
        """One run of the paper's Index-Build procedure.

        *entries* is the full state of the same stream (memory + disk +
        purge buffer).  Tuples whose ``pid`` is ``None`` are evaluated
        against punctuations added to the store since the last run; the
        first-arrived match wins, as the paper specifies.
        """
        fresh = self.store.since(self._cursor)
        self._cursor = self.store.next_id
        scanned = 0
        unindexed = 0
        newly_indexed = 0
        if fresh:
            for pid, _punct in fresh:
                self._counts.setdefault(pid, 0)
                self._indexed_pids.add(pid)
            for entry in entries:
                scanned += 1
                if entry.pid is not None:
                    continue
                unindexed += 1
                for pid, punct in fresh:
                    if punct.patterns[self.store.join_index].matches(
                        entry.join_value
                    ):
                        entry.pid = pid
                        self._counts[pid] += 1
                        newly_indexed += 1
                        break
        else:
            for entry in entries:
                scanned += 1
                if entry.pid is None:
                    unindexed += 1
        self.tagged += newly_indexed
        self.build_runs += 1
        return IndexBuildResult(scanned, unindexed, len(fresh), newly_indexed)

    def build_named(
        self,
        table: PartitionedHashTable,
        purge_buffer: List[StateEntry],
        value_type: Optional[type],
    ) -> IndexBuildResult:
        """:meth:`build` over the state of *table* and *purge_buffer*.

        When the fresh punctuations name their values, only entries
        holding one are visited, and ``scanned`` and ``unindexed`` come
        from the state size and :attr:`tagged`; otherwise this walks the
        state.  *value_type* is the join field's declared type.  Tags,
        counts and the returned statistics equal the walk's.
        """
        named = self.store.values_since(self._cursor, value_type)
        if named is None:
            return self.build(chain(table.iter_all(), purge_buffer))
        fresh = self.store.since(self._cursor)
        self._cursor = self.store.next_id
        counts = self._counts
        for pid, _punct in fresh:
            counts.setdefault(pid, 0)
            self._indexed_pids.add(pid)
        buffered = [entry for entry in purge_buffer if entry.join_value in named]
        newly_indexed = 0
        for entry in chain(table.iter_values(named), buffered):
            if entry.pid is None:
                pid = named[entry.join_value]
                entry.pid = pid
                counts[pid] += 1
                newly_indexed += 1
        scanned = table.total_count + len(purge_buffer)
        unindexed = scanned - self.tagged
        self.tagged += newly_indexed
        self.build_runs += 1
        return IndexBuildResult(scanned, unindexed, len(fresh), newly_indexed)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def on_entry_discarded(self, entry: StateEntry) -> None:
        """Deduct the count of the punctuation the purged tuple carried."""
        if entry.pid is None:
            return
        count = self._counts.get(entry.pid)
        if count is not None:
            self._counts[entry.pid] = count - 1
            self.tagged -= 1

    # ------------------------------------------------------------------
    # Propagation support
    # ------------------------------------------------------------------

    def count_of(self, pid: int) -> int:
        """Current count of the punctuation with the given pid."""
        return self._counts.get(pid, 0)

    def is_indexed(self, pid: int) -> bool:
        return pid in self._indexed_pids

    def propagable(self) -> List[PyTuple[int, Punctuation]]:
        """Live punctuations with an indexed count of zero, arrival order.

        By Theorem 1, a punctuation with no matching tuple left in the
        state can be released: no future result tuple can match it.
        """
        result = []
        for pid, punct in self.store.items():
            if pid in self._indexed_pids and self._counts.get(pid, 0) == 0:
                result.append((pid, punct))
        return result

    def on_punctuation_removed(self, pid: int) -> None:
        """Forget a punctuation once it has been propagated or retracted.

        A retraction then untags the entries that carried *pid*.
        """
        self.tagged -= self._counts.pop(pid, 0)
        self._indexed_pids.discard(pid)

    @property
    def pending_unindexed_punctuations(self) -> int:
        """Punctuations added to the store since the last build run."""
        return max(0, self.store.next_id - self._cursor)

    def __repr__(self) -> str:
        return (
            f"PunctuationIndex(indexed={len(self._indexed_pids)}, "
            f"builds={self.build_runs})"
        )
