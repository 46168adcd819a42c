"""The state-purge component (paper Section 3.4).

Applies the purge rules (1): a tuple in stream A's state is removed
once the punctuation set of stream B covers it, and vice versa.  The
*strategy* — eager (run on every punctuation) versus lazy (run when the
purge threshold is reached) — is decided by the monitor; this module
implements one purge *run*.

A purge run scans the memory portion of a state (the virtual cost model
charges for that scan, which is exactly the overhead the paper trades
against probing savings).  A covered tuple is discarded outright unless
the opposite stream's same hash bucket has a disk-resident portion that
the tuple has not yet joined with; then it moves to the purge buffer,
to be finally discarded by the disk-join component.

Disk-resident tuples are purged by the disk join itself (reading them
just to throw them away would waste I/O).

A run need not test every join value in the state.  After a run no
covered entry is left in the memory portion, and a value enters it
uncovered unless the join inserts it while covered (a tuple kept for
the opposite disk portion, a hot-key replica).  Between two runs only
punctuations added to the purging store can cover a stored value, and
they name it, as the index builder's argument goes (Section 3.5).  A
:class:`PurgeCursor` hands each run those values and the noted ones;
range, wildcard and other patterns, and join fields not declared
``int`` or ``str``, make the run test every value as before.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Set

from repro.core.state import JoinStateSide
from repro.punctuations.store import PunctuationStore


class PurgeResult:
    """Statistics of one purge run over one side."""

    __slots__ = ("scanned", "discarded", "buffered")

    def __init__(self, scanned: int = 0, discarded: int = 0, buffered: int = 0) -> None:
        self.scanned = scanned
        self.discarded = discarded
        self.buffered = buffered

    @property
    def removed(self) -> int:
        return self.discarded + self.buffered

    def __iadd__(self, other: "PurgeResult") -> "PurgeResult":
        self.scanned += other.scanned
        self.discarded += other.discarded
        self.buffered += other.buffered
        return self

    def __repr__(self) -> str:
        return (
            f"PurgeResult(scanned={self.scanned}, discarded={self.discarded}, "
            f"buffered={self.buffered})"
        )


class PurgeCursor:
    """The join values one side's next purge run has to test.

    Keeps a position in each punctuation store the side is purged
    against, and the values the join noted inserting while they may
    already have been covered.  A join that lets covered tuples in
    without noting them (no on-the-fly dropping, the A4 ablation)
    builds its cursors with ``by_value=False``: every run then tests
    every value.
    """

    __slots__ = ("stores", "value_type", "positions", "noted")

    def __init__(
        self,
        victim: JoinStateSide,
        stores: Sequence[PunctuationStore],
        by_value: bool = True,
    ) -> None:
        self.stores = tuple(stores)
        # PunctuationStore.values_since names no values for None.
        self.value_type = victim.join_dtype if by_value else None
        self.positions = [0] * len(self.stores)
        self.noted: Set[Any] = set()

    def note(self, value: Any) -> None:
        """Record a value inserted into the state while covered."""
        self.noted.add(value)

    def take(self) -> Optional[Set[Any]]:
        """This run's candidate values, or ``None`` to test every value.

        Moves past every store's punctuations and forgets the noted
        values, whatever the run then does: coverage only grows through
        new punctuations, so a value covered later is named later.
        """
        candidates: Optional[Set[Any]] = self.noted
        self.noted = set()
        for i, store in enumerate(self.stores):
            named = store.values_since(self.positions[i], self.value_type)
            self.positions[i] = store.next_id
            if named is None:
                candidates = None
            elif candidates is not None:
                candidates.update(named)
        return candidates

    def reset(self) -> None:
        """After a restore: every live punctuation counts as new."""
        self.positions = [0] * len(self.stores)
        self.noted = set()


def purge_side(
    victim: JoinStateSide,
    opposite: JoinStateSide,
    now: float,
    cursor: Optional[PurgeCursor] = None,
) -> PurgeResult:
    """Purge *victim*'s memory portion using *opposite*'s punctuations.

    Coverage is decided once per distinct join value, not per entry.
    With a *cursor*, only the values it hands out are tested; without
    one, or when the new punctuations do not name their values, every
    value is.  The cost model charges for the full scan either way.
    Governor-demoted cold entries count as memory-resident, so a run
    reclaims covered ones even when the warm portion is empty.
    """
    scanned = victim.memory_size
    candidates = cursor.take() if cursor is not None else None
    if len(opposite.store) == 0 or (scanned == 0 and victim.table.cold_count == 0):
        return PurgeResult(scanned=scanned)
    removed = victim.table.remove_where(opposite.store.covers_value, candidates)
    discarded = 0
    buffered = 0
    for entry in removed:
        opposite_partition = opposite.table.partition_for(
            entry.join_value, entry.join_hash
        )
        if opposite_partition.disk_count > 0:
            victim.buffer_entry(entry, now)
            buffered += 1
        else:
            victim.discard_entry(entry)
            discarded += 1
    return PurgeResult(scanned=scanned, discarded=discarded, buffered=buffered)
