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
"""

from __future__ import annotations

from repro.core.state import JoinStateSide


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


def purge_side(
    victim: JoinStateSide,
    opposite: JoinStateSide,
    now: float,
) -> PurgeResult:
    """Purge *victim*'s memory portion using *opposite*'s punctuations.

    Applying the full punctuation set (rather than only punctuations
    newer than the last run) keeps the run correct even when on-the-fly
    dropping is disabled and already-covered tuples were allowed into
    the state (the A4 ablation).  Coverage is decided once per distinct
    join value, not per entry; the cost model still charges for the
    full scan.  Governor-demoted cold entries count as memory-resident,
    so a run reclaims covered ones even when the warm portion is empty.
    """
    scanned = victim.memory_size
    if len(opposite.store) == 0 or (scanned == 0 and victim.table.cold_count == 0):
        return PurgeResult(scanned=scanned)
    removed = victim.table.remove_where(opposite.store.covers_value)
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
