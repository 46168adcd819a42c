"""Unit tests for state entries and hybrid partitions."""

import math

from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "v")


def entry(key, ts=0.0):
    return StateEntry(Tuple(SCHEMA, (key, 0), ts=ts), key, ats=ts)


class TestStateEntry:
    def test_starts_in_memory_with_null_pid(self):
        e = entry(1)
        assert e.in_memory
        assert e.dts == math.inf
        assert e.pid is None

    def test_leaves_memory_when_dts_set(self):
        e = entry(1)
        e.dts = 5.0
        assert not e.in_memory


class TestHybridPartition:
    def test_insert_and_probe(self):
        part = HybridPartition(0)
        e1, e2 = entry(1), entry(1)
        part.insert(e1)
        part.insert(e2)
        part.insert(entry(2))
        assert part.memory_count == 3
        assert part.probe_memory(1) == [e1, e2]
        assert part.probe_memory(99) == []

    def test_last_insert_ts_tracks_newest(self):
        part = HybridPartition(0)
        part.insert(entry(1, ts=3.0))
        part.insert(entry(2, ts=1.0))
        assert part.last_insert_ts == 3.0

    def test_remove_memory_value(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.insert(entry(1))
        part.insert(entry(2))
        removed = part.remove_memory_value(1)
        assert len(removed) == 2
        assert part.memory_count == 1
        assert part.probe_memory(1) == []

    def test_remove_memory_where(self):
        part = HybridPartition(0)
        a1, b, a2, c = entry(1, ts=1.0), entry(2), entry(1, ts=5.0), entry(3)
        for e in (a1, b, a2, c):
            part.insert(e)
        kept = part.probe_memory(2)
        asked = []
        removed = part.remove_memory_where(
            lambda value: asked.append(value) or value != 2
        )
        assert asked == [1, 2, 3]  # once per distinct value, dict order
        assert removed == [a1, a2, c]  # a covered value's whole list
        assert part.memory_count == 1
        assert list(part.memory) == [2]
        assert part.probe_memory(2) is kept  # kept lists stay in place

    def test_spill_moves_everything_and_stamps_dts(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.insert(entry(2))
        moved = part.spill(now=7.0)
        assert moved == 2
        assert part.memory_count == 0
        assert part.disk_count == 2
        assert all(e.dts == 7.0 for e in part.iter_disk())
        assert part.last_spill_ts == 7.0

    def test_empty_spill_does_not_update_spill_ts(self):
        part = HybridPartition(0)
        assert part.spill(now=7.0) == 0
        assert part.last_spill_ts == -math.inf

    def test_remove_disk_where(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.insert(entry(2))
        part.spill(now=1.0)
        part.insert(entry(1))
        part.spill(now=2.0)
        asked = []
        removed = part.remove_disk_where(
            lambda value: asked.append(value) or value == 1
        )
        assert asked == [1, 2]  # once per distinct value
        assert [e.join_value for e in removed] == [1, 1]
        assert [e.join_value for e in part.iter_disk()] == [2]

    def test_probe_history_records(self):
        part = HybridPartition(0)
        part.record_probe(1.0)
        part.record_probe(2.0)
        assert part.probe_history == [1.0, 2.0]

    def test_total_count(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.spill(now=1.0)
        part.insert(entry(2))
        assert part.total_count == 2
