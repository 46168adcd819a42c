"""The partitioned hash table holding one stream's join state.

Both joins (XJoin and PJoin) maintain one :class:`PartitionedHashTable`
per input stream.  Hashing uses :func:`stable_hash`, which — unlike the
builtin ``hash`` on strings — is stable across Python processes, so a
seeded experiment produces the identical event trace every run.
"""

from __future__ import annotations

import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple as PyTuple,
)

from repro.errors import StorageError
from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.tuple import Tuple

# repr+CRC results for non-int join values.  Join domains are small
# (thousands of distinct keys) while tuple counts are large, so almost
# every probe/insert is a cache hit; the cap bounds pathological
# all-distinct workloads.  Process-local, so cross-process stability
# (the property the tests pin down) is untouched.
_HASH_CACHE: Dict[Any, int] = {}
_HASH_CACHE_MAX = 1 << 16


def stable_hash(value: Any) -> int:
    """A process-stable hash for join values.

    Integers hash to themselves; everything else hashes through CRC-32
    of its ``repr`` (memoized).  Python's builtin string hash is salted
    per process (``PYTHONHASHSEED``), which would make bucket assignment
    — and hence every virtual-time measurement — vary between runs.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    try:
        cached = _HASH_CACHE.get(value)
    except TypeError:  # unhashable join value: compute uncached
        return zlib.crc32(repr(value).encode("utf-8"))
    if cached is None:
        cached = zlib.crc32(repr(value).encode("utf-8"))
        if len(_HASH_CACHE) < _HASH_CACHE_MAX:
            _HASH_CACHE[value] = cached
    return cached


class PartitionedHashTable:
    """Hash table over *n_partitions* hybrid buckets.

    Parameters
    ----------
    n_partitions:
        Number of hash buckets.  The paper-scale experiments use a
        moderate count (default 16) so that an unpurged state visibly
        lengthens bucket chains.
    """

    def __init__(self, n_partitions: int = 16) -> None:
        if n_partitions < 1:
            raise StorageError(f"need at least one partition, got {n_partitions}")
        self.n_partitions = n_partitions
        self.partitions = [HybridPartition(i) for i in range(n_partitions)]
        # Portion sizes summed over the buckets, kept current by every
        # mutating method so that sizes and state gauges are O(1).
        self.memory_count = 0
        self.cold_count = 0
        self.disk_count = 0
        self.total_inserted = 0
        # Bumped whenever buckets are rebuilt by hand (checkpoint
        # restore, rescale migration, restructuring): entries may then
        # sit in buckets the memory governor never saw them enter.
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def partition_index_for(self, hash_value: int) -> int:
        """Flat index of the bucket a hash value maps to.

        The single placement decision of the table: subclasses (the
        skew layer's :class:`~repro.skew.partitioner.AdaptiveTable`)
        override exactly this, and every placement-sensitive caller —
        insert, probe, purge-buffer grouping, the disk join's pairing —
        routes through it.
        """
        return hash_value % self.n_partitions

    def partition_for(
        self, join_value: Any, hash_value: Optional[int] = None
    ) -> HybridPartition:
        """The bucket a join value hashes to.

        Callers that already know ``stable_hash(join_value)`` — e.g.
        because the same tuple both probes and inserts — pass it as
        *hash_value* to skip rehashing.
        """
        if hash_value is None:
            hash_value = stable_hash(join_value)
        return self.partitions[self.partition_index_for(hash_value)]

    def insert(
        self,
        tup: Tuple,
        join_value: Any,
        ats: float,
        hash_value: Optional[int] = None,
    ) -> StateEntry:
        """Insert a tuple; returns its new :class:`StateEntry`."""
        if hash_value is None:
            hash_value = stable_hash(join_value)
        entry = StateEntry(tup, join_value, ats, hash_value)
        self.partitions[self.partition_index_for(hash_value)].insert(entry)
        self.memory_count += 1
        self.total_inserted += 1
        return entry

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def probe(
        self, join_value: Any, hash_value: Optional[int] = None
    ) -> PyTuple[int, List[StateEntry]]:
        """Probe the memory portion of the matching bucket.

        Returns ``(bucket_occupancy, matching_entries)``.  The occupancy
        (all memory-resident tuples in the bucket, matching or not) is
        what the cost model charges for — it models scanning the bucket
        chain, which is exactly the cost that grows when dead tuples are
        never purged.
        """
        partition = self.partition_for(join_value, hash_value)
        return partition.memory_count, partition.probe_memory(join_value)

    # ------------------------------------------------------------------
    # Removal (purging)
    # ------------------------------------------------------------------

    def remove_value(self, join_value: Any) -> List[StateEntry]:
        """Drop and return all memory entries with this join value."""
        removed = self.partition_for(join_value).remove_memory_value(join_value)
        self.memory_count -= len(removed)
        return removed

    def remove_where(
        self,
        covered: Callable[[Any], bool],
        candidates: Optional[Iterable[Any]] = None,
    ) -> List[StateEntry]:
        """Drop and return the entries whose join value *covered* accepts.

        *covered* is called once per distinct join value of each
        bucket's memory portion.  Governor-demoted cold entries are
        swept too: they are logically memory-resident, so a purge that
        covers them reclaims them without ever faulting them back in.

        Given *candidates*, the caller vouches that no other join value
        is covered: only the candidates' buckets are visited and only
        the candidates are tested.  The candidates must hash like the
        stored values (see :meth:`PunctuationStore.values_since
        <repro.punctuations.store.PunctuationStore.values_since>`).
        Either way the entries come out in the full scan's order:
        buckets ascending, then each bucket's memory portion in dict
        order, then its cold runs in demotion order.
        """
        if candidates is None:
            targets = [(partition, None) for partition in self.partitions]
        else:
            grouped = self._group_by_partition(candidates)
            targets = [(self.partitions[i], grouped[i]) for i in sorted(grouped)]
        removed: List[StateEntry] = []
        for partition, values in targets:
            from_memory = partition.remove_memory_where(covered, values)
            self.memory_count -= len(from_memory)
            removed.extend(from_memory)
            if partition.cold_count:
                from_cold = partition.remove_cold_where(covered, values)
                self.cold_count -= len(from_cold)
                removed.extend(from_cold)
        return removed

    def iter_values(self, values: Iterable[Any]) -> Iterator[StateEntry]:
        """Every entry (memory, cold, disk) whose join value is in *values*.

        Visits only the values' buckets, so *values* must hash like the
        stored values, as for :meth:`remove_where`'s candidates.
        """
        for index, bucket_values in self._group_by_partition(values).items():
            yield from self.partitions[index].iter_values(bucket_values)

    def _group_by_partition(self, values: Iterable[Any]) -> Dict[int, Set[Any]]:
        """*values* by the flat index of the bucket each hashes to."""
        grouped: Dict[int, Set[Any]] = {}
        index_for = self.partition_index_for
        for value in values:
            grouped.setdefault(index_for(stable_hash(value)), set()).add(value)
        return grouped

    def remove_disk_where(
        self, partition: HybridPartition, covered: Callable[[Any], bool]
    ) -> List[StateEntry]:
        """Drop and return one bucket's disk entries *covered* accepts."""
        removed = partition.remove_disk_where(covered)
        self.disk_count -= len(removed)
        return removed

    # ------------------------------------------------------------------
    # Spilling
    # ------------------------------------------------------------------

    def largest_memory_partition(self) -> HybridPartition:
        """The bucket with the largest memory portion (XJoin's victim)."""
        return max(self.partitions, key=lambda p: p.memory_count)

    def spill_partition(self, partition: HybridPartition, now: float) -> int:
        """Flush one bucket's memory portion to disk; returns tuples moved.

        Sweeps governor-demoted cold entries along with the warm ones
        (they are logically memory-resident), so the return value may
        exceed the bucket's warm ``memory_count``.
        """
        self.memory_count -= partition.memory_count
        self.cold_count -= partition.cold_count
        moved = partition.spill(now)
        self.disk_count += moved
        return moved

    # ------------------------------------------------------------------
    # Governor paging (cold tier; ``dts`` untouched)
    # ------------------------------------------------------------------

    def demote_partition(self, partition: HybridPartition) -> int:
        """Page one bucket's memory portion out to its cold list."""
        moved = partition.demote()
        self.memory_count -= moved
        self.cold_count += moved
        return moved

    def promote_partition(self, partition: HybridPartition) -> int:
        """Fault one bucket's cold portion back into its memory portion."""
        moved = partition.promote()
        self.memory_count += moved
        self.cold_count -= moved
        return moved

    def recount(self) -> None:
        """Recompute every count after buckets were filled by hand.

        Checkpoint restore and rescale migration place entries without
        the counted methods; they call this once when done.
        """
        for partition in self.partitions:
            partition.recount()
        self.memory_count = sum(p.memory_count for p in self.partitions)
        self.cold_count = sum(p.cold_count for p in self.partitions)
        self.disk_count = sum(p.disk_count for p in self.partitions)
        self.rebuilds += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_count(self) -> int:
        return self.memory_count + self.cold_count + self.disk_count

    def iter_memory(self) -> Iterator[StateEntry]:
        for partition in self.partitions:
            yield from partition.iter_memory()

    def iter_cold(self) -> Iterator[StateEntry]:
        for partition in self.partitions:
            yield from partition.iter_cold()

    def iter_disk(self) -> Iterator[StateEntry]:
        for partition in self.partitions:
            yield from partition.iter_disk()

    def iter_all(self) -> Iterator[StateEntry]:
        yield from self.iter_memory()
        yield from self.iter_cold()
        yield from self.iter_disk()

    def partitions_with_disk(self) -> List[HybridPartition]:
        """Buckets that currently have a non-empty disk portion."""
        if not self.disk_count:
            return []
        return [p for p in self.partitions if p.disk_count > 0]

    def partitions_with_cold(self) -> List[HybridPartition]:
        """Buckets with governor-demoted (cold) entries."""
        if not self.cold_count:
            return []
        return [p for p in self.partitions if p.cold_count > 0]

    def __len__(self) -> int:
        return self.total_count

    def __repr__(self) -> str:
        return (
            f"PartitionedHashTable(n={self.n_partitions}, "
            f"mem={self.memory_count}, disk={self.disk_count})"
        )
