"""State entries and hybrid hash-bucket partitions.

A :class:`StateEntry` wraps one state-resident tuple together with the
metadata the join algorithms need:

* ``ats`` — arrival timestamp (when the tuple entered the state);
* ``dts`` — departure timestamp (when its partition was flushed to
  disk; ``inf`` while memory-resident).  Together ``[ats, dts)`` is the
  tuple's memory-residency interval, the basis of XJoin's timestamp
  duplicate-prevention;
* ``pid`` — the punctuation-index id assigned by PJoin's index builder
  (``None`` until indexed), mirroring the paper's augmented tuple
  structure (Figure 2 (b)).

A :class:`HybridPartition` is one hash bucket with a memory portion and
a disk portion.  The memory portion is organised as a ``join value →
entries`` dict: real match lookup is O(matches), while the *virtual*
probe cost charged by the cost model is proportional to the bucket's
total occupancy, modelling a bucket-chain scan.

A third, *cold* portion backs the memory governor
(:mod:`repro.memory`): a governor eviction demotes the whole memory
portion into the cold portion without stamping ``dts`` — the entries
stay memory-resident as far as the join algorithms' duplicate-prevention
intervals are concerned, they are merely paged out and faulted back
(in original order) before the next probe touches the bucket.  The cold
portion is a list of ``(join value, entries)`` runs, one per demoted
per-value list, so paging costs O(distinct values), not O(tuples).

Each portion's size is kept as a count (``memory_count``,
``cold_count``, ``disk_count``) that every mutating method updates;
code that rebuilds a portion by hand calls :meth:`HybridPartition.recount`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple as PyTuple

from repro.tuples.tuple import Tuple

INFINITY = math.inf


def _split_by_value(
    entries: List["StateEntry"], covered: Callable[[Any], bool]
) -> PyTuple[List["StateEntry"], List["StateEntry"]]:
    """``(removed, kept)`` in entry order, one ``covered`` call per value."""
    verdicts: Dict[Any, bool] = {}
    removed: List[StateEntry] = []
    kept: List[StateEntry] = []
    for entry in entries:
        value = entry.join_value
        verdict = verdicts.get(value)
        if verdict is None:
            verdict = verdicts[value] = covered(value)
        (removed if verdict else kept).append(entry)
    return removed, (kept if removed else entries)


class StateEntry:
    """One tuple resident in a join state, with join metadata."""

    __slots__ = ("tup", "join_value", "join_hash", "ats", "dts", "pid")

    def __init__(
        self,
        tup: Tuple,
        join_value: Any,
        ats: float,
        join_hash: Optional[int] = None,
    ) -> None:
        self.tup = tup
        self.join_value = join_value
        # stable_hash(join_value), cached once at insert so later bucket
        # lookups (purge cascades, disk-join grouping) never rehash.
        self.join_hash = join_hash
        self.ats = ats
        self.dts: float = INFINITY
        self.pid: Optional[int] = None

    @property
    def in_memory(self) -> bool:
        return self.dts == INFINITY

    def __repr__(self) -> str:
        where = "mem" if self.in_memory else f"disk@{self.dts:g}"
        return f"StateEntry({self.tup!r}, {where}, pid={self.pid})"


class HybridPartition:
    """One hash bucket: a memory portion plus a disk portion.

    The disk portion is a flat list of entries (the algorithms always
    read a disk portion in full), plus the history of virtual times at
    which it was probed against the opposite memory portion — needed by
    XJoin's stage-3 duplicate prevention.
    """

    __slots__ = (
        "index",
        "memory",
        "memory_count",
        "cold",
        "cold_count",
        "disk",
        "disk_count",
        "probe_history",
        "last_insert_ts",
        "last_spill_ts",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.memory: Dict[Any, List[StateEntry]] = {}
        self.memory_count = 0
        # Governor-demoted entries as (join value, entries) runs in
        # demotion order: logically memory-resident (``dts``
        # untouched) but paged out until the next fault-in.
        self.cold: List[PyTuple[Any, List[StateEntry]]] = []
        self.cold_count = 0
        self.disk: List[StateEntry] = []
        self.disk_count = 0
        # Times at which stage 2 probed this disk portion against the
        # opposite memory portion, in increasing order.
        self.probe_history: List[float] = []
        # Arrival time of the newest memory entry; lets the reactive
        # disk-join stage skip partitions with nothing new to pair.
        self.last_insert_ts = -INFINITY
        # Time of the latest flush; lets a full disk join detect fresh
        # disk-disk work since the previous full run.
        self.last_spill_ts = -INFINITY

    # ------------------------------------------------------------------
    # Memory portion
    # ------------------------------------------------------------------

    def insert(self, entry: StateEntry) -> None:
        """Add *entry* to the memory portion."""
        self.memory.setdefault(entry.join_value, []).append(entry)
        self.memory_count += 1
        if entry.ats > self.last_insert_ts:
            self.last_insert_ts = entry.ats

    def probe_memory(self, join_value: Any) -> List[StateEntry]:
        """Memory-resident entries matching *join_value* (may be empty)."""
        return self.memory.get(join_value, [])

    def iter_memory(self) -> Iterator[StateEntry]:
        for entries in self.memory.values():
            yield from entries

    def remove_memory_value(self, join_value: Any) -> List[StateEntry]:
        """Drop and return all memory entries with the given join value."""
        entries = self.memory.pop(join_value, [])
        self.memory_count -= len(entries)
        return entries

    def remove_memory_where(
        self, covered: Callable[[Any], bool], values: Optional[Set[Any]] = None
    ) -> List[StateEntry]:
        """Drop and return the entries of every join value *covered* accepts.

        One ``covered`` call per distinct value; a covered value's whole
        list goes, in dict order, and kept lists stay where they are.
        Given *values*, only those of them held here are tested.
        """
        memory = self.memory
        if values is None:
            doomed = [value for value in memory if covered(value)]
        else:
            doomed = [value for value in values if value in memory and covered(value)]
            if len(doomed) > 1:
                wanted = set(doomed)
                doomed = [value for value in memory if value in wanted]
        removed: List[StateEntry] = []
        for value in doomed:
            removed.extend(memory.pop(value))
        self.memory_count -= len(removed)
        return removed

    # ------------------------------------------------------------------
    # Cold portion (governor paging; ``dts`` never touched here)
    # ------------------------------------------------------------------

    def demote(self) -> int:
        """Page the whole memory portion out to the cold portion.

        Each per-value entry list moves as one run, so the cost is
        O(distinct values).  Entries keep ``dts = inf`` (they remain
        memory-resident for the algorithms' duplicate-prevention
        intervals) and their order.  Returns the number of tuples
        demoted (the governor charges disk-write cost for them).
        """
        moved = self.memory_count
        self.cold.extend(self.memory.items())
        self.memory.clear()
        self.memory_count = 0
        self.cold_count += moved
        return moved

    def promote(self) -> int:
        """Fault every cold entry back into the memory portion.

        Each run rejoins its value's warm list: entries inserted since
        the demotion come first, the cold ones follow in demotion
        order, and values that are not warm are appended to the memory
        dict in demotion order.  That is what re-inserting the cold
        entries one by one would build; with no insert since the
        demotion it is exactly the pre-demotion structure.  Returns the
        number of tuples promoted (the governor charges disk-read cost
        for them).
        """
        memory = self.memory
        for value, entries in self.cold:
            warm = memory.get(value)
            if warm is None:
                memory[value] = entries
            else:
                warm.extend(entries)
        moved = self.cold_count
        self.memory_count += moved
        self.cold = []
        self.cold_count = 0
        return moved

    def iter_cold(self) -> Iterator[StateEntry]:
        for _value, entries in self.cold:
            yield from entries

    def remove_cold_where(
        self, covered: Callable[[Any], bool], values: Optional[Set[Any]] = None
    ) -> List[StateEntry]:
        """Drop and return cold entries whose join value *covered* accepts.

        One ``covered`` call per distinct value; removed entries come
        out in demotion order and kept runs stay in place.  Given
        *values*, only those of them are tested.
        """
        verdicts: Dict[Any, bool] = {}
        removed: List[StateEntry] = []
        kept: List[PyTuple[Any, List[StateEntry]]] = []
        for run in self.cold:
            value = run[0]
            verdict = verdicts.get(value)
            if verdict is None:
                verdict = verdicts[value] = (
                    values is None or value in values
                ) and covered(value)
            if verdict:
                removed.extend(run[1])
            else:
                kept.append(run)
        if removed:
            self.cold = kept
            self.cold_count -= len(removed)
        return removed

    # ------------------------------------------------------------------
    # Disk portion
    # ------------------------------------------------------------------

    def spill(self, now: float) -> int:
        """Move the whole memory portion to the disk portion.

        Every moved entry gets ``dts = now``.  Cold entries are swept
        along: they are logically memory-resident, so an algorithmic
        flush of this bucket closes their residency interval too.
        Returns the number of tuples moved (the caller charges
        disk-write cost for them).
        """
        disk = self.disk
        for entries in self.memory.values():
            for entry in entries:
                entry.dts = now
            disk.extend(entries)
        for _value, entries in self.cold:
            for entry in entries:
                entry.dts = now
            disk.extend(entries)
        moved = self.memory_count + self.cold_count
        self.memory.clear()
        self.memory_count = 0
        self.cold = []
        self.cold_count = 0
        self.disk_count += moved
        if moved:
            self.last_spill_ts = now
        return moved

    def iter_disk(self) -> Iterator[StateEntry]:
        return iter(self.disk)

    def remove_disk_where(self, covered: Callable[[Any], bool]) -> List[StateEntry]:
        """Drop and return disk entries whose join value *covered* accepts."""
        removed, self.disk = _split_by_value(self.disk, covered)
        self.disk_count -= len(removed)
        return removed

    def iter_values(self, values: Set[Any]) -> Iterator[StateEntry]:
        """Every entry (memory, cold or disk) whose join value is in *values*."""
        memory = self.memory
        for value in values:
            yield from memory.get(value, ())
        for value, entries in self.cold:
            if value in values:
                yield from entries
        for entry in self.disk:
            if entry.join_value in values:
                yield entry

    def record_probe(self, now: float) -> None:
        """Record a stage-2 probe of this disk portion at virtual *now*."""
        self.probe_history.append(now)

    @property
    def total_count(self) -> int:
        return self.memory_count + self.cold_count + self.disk_count

    def recount(self) -> None:
        """Recompute the three counts from the portions themselves.

        For code that fills a portion without the counted methods
        (checkpoint restore, rescale migration).
        """
        self.memory_count = sum(map(len, self.memory.values()))
        self.cold_count = sum(len(entries) for _value, entries in self.cold)
        self.disk_count = len(self.disk)

    def __repr__(self) -> str:
        return (
            f"HybridPartition(#{self.index}, mem={self.memory_count}, "
            f"cold={self.cold_count}, disk={self.disk_count})"
        )
