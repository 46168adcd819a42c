"""AdaptiveTable: a partitioned hash table with splittable buckets.

The stock :class:`~repro.storage.hash_table.PartitionedHashTable` maps
``stable_hash(key) % n`` onto a fixed bucket list, so one hot key's
bucket chain grows without bound under skew and *every* co-resident
key pays its occupancy on probe (the cost model charges the full
bucket scan).  The adaptive table keeps the same ``n`` *base* buckets
but lets each split into ``2^depth`` finer leaves keyed by the next
hash bits — separating a hot key from its co-residents so cold probes
stop paying hot occupancy — and coalesce back when the heat moves on.

Invariants the rest of the system relies on:

* ``n_partitions`` stays the *base* bucket count forever;
  ``len(table.partitions)`` is the current leaf count.  All flat-list
  iteration (purge sweeps, spill victim scans, governor candidate
  enumeration) works unchanged over leaves.
* The disk join pairs the two sides' partitions by flat index, so a
  join must apply every restructure to **both** sides' tables
  symmetrically (the :class:`~repro.skew.manager.SkewManager` does) —
  equal ``(n_base, depths)`` means equal flat layouts.
* Restructuring only touches buckets whose leaves hold no disk and no
  governor-demoted (cold) entries; moved entries keep their ``ats``
  (and ``dts = inf``), so every duplicate-prevention interval and
  purge verdict is exactly what it was — the result multiset cannot
  change (the equivalence suite pins this).
* ``partition.index`` values are reassigned to the new flat positions
  after a restructure; they stay unique and deterministic.
"""

from __future__ import annotations

from typing import List

from repro.errors import StorageError
from repro.storage.hash_table import PartitionedHashTable, stable_hash
from repro.storage.partition import HybridPartition


class AdaptiveTable(PartitionedHashTable):
    """A partitioned hash table whose base buckets split and coalesce."""

    def __init__(self, n_partitions: int = 16) -> None:
        super().__init__(n_partitions)
        self.n_base = n_partitions
        self.depths = [0] * n_partitions
        self._offsets = list(range(n_partitions))
        self.splits = 0
        self.coalesces = 0
        self.entries_moved = 0

    # ------------------------------------------------------------------
    # Placement (overrides)
    # ------------------------------------------------------------------

    def partition_index_for(self, hash_value: int) -> int:
        """Flat leaf index: base bucket, then the next hash bits."""
        base = hash_value % self.n_base
        depth = self.depths[base]
        if depth == 0:
            return self._offsets[base]
        return self._offsets[base] + ((hash_value // self.n_base) % (1 << depth))

    # ------------------------------------------------------------------
    # Restructuring (punctuation-aligned purge boundaries only)
    # ------------------------------------------------------------------

    def leaves(self, base: int) -> List[HybridPartition]:
        """The current leaf partitions of one base bucket."""
        lo = self._offsets[base]
        return self.partitions[lo : lo + (1 << self.depths[base])]

    def can_restructure(self, base: int) -> bool:
        """Restructuring moves memory entries only: every leaf of the
        base bucket must be free of disk and cold portions."""
        return all(
            p.disk_count == 0 and p.cold_count == 0 for p in self.leaves(base)
        )

    def set_depth(self, base: int, new_depth: int) -> int:
        """Rebuild one base bucket at *new_depth*; returns entries moved.

        The caller charges virtual time for the move (the manager uses
        ``purge_scan_per_tuple`` per entry, the same rate a purge scan
        pays) and must apply the identical call to the opposite side's
        table to keep the flat layouts paired.
        """
        if not 0 <= base < self.n_base:
            raise StorageError(f"no base bucket {base}")
        if new_depth < 0:
            raise StorageError(f"negative split depth {new_depth}")
        old_depth = self.depths[base]
        if new_depth == old_depth:
            return 0
        if not self.can_restructure(base):
            raise StorageError(
                f"base bucket {base} has disk/cold entries; restructure "
                "is only legal on memory-resident buckets"
            )
        old_leaves = self.leaves(base)
        new_leaves = [HybridPartition(0) for _ in range(1 << new_depth)]
        self.depths[base] = new_depth
        moved = 0
        for leaf in old_leaves:
            for entry in leaf.iter_memory():
                h = entry.join_hash
                if h is None:
                    h = stable_hash(entry.join_value)
                    entry.join_hash = h
                new_leaves[(h // self.n_base) % (1 << new_depth)].insert(entry)
                moved += 1
        lo = self._offsets[base]
        self.partitions[lo : lo + (1 << old_depth)] = new_leaves
        self._rebuild_offsets()
        # Only warm entries moved, within this table: its counts stand.
        # Flat indices did move, so a governor must re-read its buckets.
        self.rebuilds += 1
        if new_depth > old_depth:
            self.splits += 1
        else:
            self.coalesces += 1
        self.entries_moved += moved
        return moved

    def _rebuild_offsets(self) -> None:
        offset = 0
        for base in range(self.n_base):
            self._offsets[base] = offset
            offset += 1 << self.depths[base]
        for index, partition in enumerate(self.partitions):
            partition.index = index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return len(self.partitions)

    def __repr__(self) -> str:
        return (
            f"AdaptiveTable(base={self.n_base}, leaves={self.leaf_count}, "
            f"mem={self.memory_count}, splits={self.splits})"
        )
