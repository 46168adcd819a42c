"""Unit tests for the partitioned hash table."""

import pytest

from repro.errors import StorageError
from repro.storage.hash_table import PartitionedHashTable, stable_hash
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "v")


def tup(key, ts=0.0):
    return Tuple(SCHEMA, (key, 0), ts=ts)


class TestStableHash:
    def test_int_hashes_to_itself(self):
        assert stable_hash(42) == 42

    def test_bool_is_not_confused_with_large_int_hash(self):
        assert stable_hash(True) == 1
        assert stable_hash(False) == 0

    def test_string_hash_is_deterministic(self):
        # CRC-32 of repr("abc") — must not vary with PYTHONHASHSEED.
        assert stable_hash("abc") == stable_hash("abc")
        assert isinstance(stable_hash("abc"), int)


class TestPartitionedHashTable:
    def test_needs_at_least_one_partition(self):
        with pytest.raises(StorageError):
            PartitionedHashTable(0)

    def test_insert_places_by_stable_hash(self):
        table = PartitionedHashTable(4)
        table.insert(tup(5), 5, ats=1.0)
        assert table.partitions[5 % 4].memory_count == 1
        assert table.memory_count == 1
        assert table.total_inserted == 1

    def test_probe_returns_occupancy_and_matches(self):
        table = PartitionedHashTable(4)
        table.insert(tup(1), 1, ats=1.0)
        table.insert(tup(5), 5, ats=2.0)  # same bucket as 1 (mod 4)
        occupancy, matches = table.probe(1)
        assert occupancy == 2
        assert [e.join_value for e in matches] == [1]

    def test_remove_value(self):
        table = PartitionedHashTable(4)
        table.insert(tup(1), 1, ats=1.0)
        table.insert(tup(1), 1, ats=2.0)
        removed = table.remove_value(1)
        assert len(removed) == 2
        assert table.memory_count == 0

    def test_remove_where(self):
        table = PartitionedHashTable(4)
        for key in range(8):
            table.insert(tup(key), key, ats=float(key))
        asked = []
        removed = table.remove_where(
            lambda value: asked.append(value) or value % 2 == 0
        )
        assert sorted(asked) == list(range(8))  # once per distinct value
        assert sorted(e.join_value for e in removed) == [0, 2, 4, 6]
        assert table.memory_count == 4

    def test_largest_memory_partition(self):
        table = PartitionedHashTable(4)
        for _ in range(3):
            table.insert(tup(0), 0, ats=1.0)
        table.insert(tup(1), 1, ats=1.0)
        assert table.largest_memory_partition() is table.partitions[0]

    def test_spill_partition_updates_counts(self):
        table = PartitionedHashTable(4)
        table.insert(tup(0), 0, ats=1.0)
        table.insert(tup(4), 4, ats=1.0)
        moved = table.spill_partition(table.partitions[0], now=9.0)
        assert moved == 2
        assert table.memory_count == 0
        assert table.disk_count == 2
        assert table.total_count == 2

    def test_partitions_with_disk(self):
        table = PartitionedHashTable(4)
        table.insert(tup(0), 0, ats=1.0)
        assert table.partitions_with_disk() == []
        table.spill_partition(table.partitions[0], now=1.0)
        assert table.partitions_with_disk() == [table.partitions[0]]

    def test_iterators_cover_memory_and_disk(self):
        table = PartitionedHashTable(4)
        table.insert(tup(0), 0, ats=1.0)
        table.spill_partition(table.partitions[0], now=1.0)
        table.insert(tup(1), 1, ats=2.0)
        assert len(list(table.iter_memory())) == 1
        assert len(list(table.iter_disk())) == 1
        assert len(list(table.iter_all())) == 2
        assert len(table) == 2
