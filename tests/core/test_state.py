"""Unit tests for PJoin's per-stream join state."""

import pytest

from repro.core.state import JoinStateSide
from repro.punctuations.punctuation import Punctuation
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "v")


@pytest.fixture
def side():
    return JoinStateSide(SCHEMA, "key", n_partitions=4, side_name="A")


def tup(key):
    return Tuple(SCHEMA, (key, 0))


class TestTuples:
    def test_insert_and_probe(self, side):
        side.insert(tup(1), 1, now=1.0)
        side.insert(tup(1), 1, now=2.0)
        occupancy, matches = side.probe(1)
        assert len(matches) == 2
        assert side.tuples_inserted == 2
        assert side.total_size == 2

    def test_sizes(self, side):
        entry = side.insert(tup(1), 1, now=1.0)
        assert side.memory_size == 1
        assert side.disk_size == 0
        side.buffer_entry(
            side.table.remove_value(1)[0], now=2.0
        )
        assert side.memory_size == 0
        assert side.total_size == 1  # purge buffer counts


class TestPunctuations:
    def test_add_exploitable(self, side):
        pid = side.add_punctuation(Punctuation.on_field(SCHEMA, "key", 1))
        assert pid == 0
        assert side.store.covers_value(1)

    def test_unexploitable_counted_not_stored(self, side):
        punct = Punctuation.from_mapping(SCHEMA, {"key": 1, "v": 2})
        assert side.add_punctuation(punct) is None
        assert side.unexploitable_punctuations == 1
        assert not side.store.covers_value(1)

    def test_duplicate_join_pattern_dropped(self, side):
        side.add_punctuation(Punctuation.on_field(SCHEMA, "key", 1))
        assert side.add_punctuation(Punctuation.on_field(SCHEMA, "key", 1)) is None
        assert side.duplicate_punctuations == 1
        assert side.punctuation_count == 1


class TestPurgeBuffer:
    def test_buffer_entry_closes_residency_interval(self, side):
        entry = side.insert(tup(1), 1, now=1.0)
        side.table.remove_value(1)
        side.buffer_entry(entry, now=5.0)
        assert entry.dts == 5.0
        assert side.tuples_buffered == 1

    def test_clear_purge_buffer_discards_and_maintains_index(self, side):
        side.add_punctuation(Punctuation.on_field(SCHEMA, "key", 1))
        entry = side.insert(tup(1), 1, now=1.0)
        side.index.build(side.iter_all_entries())
        assert side.index.count_of(0) == 1
        side.table.remove_value(1)
        side.buffer_entry(entry, now=2.0)
        assert side.index.count_of(0) == 1  # still owed to the state
        cleared = side.clear_purge_buffer()
        assert cleared == 1
        assert side.index.count_of(0) == 0
        assert side.purge_buffer == []

    def test_iter_all_entries_includes_buffer(self, side):
        entry = side.insert(tup(1), 1, now=1.0)
        side.table.remove_value(1)
        side.buffer_entry(entry, now=2.0)
        side.insert(tup(2), 2, now=3.0)
        assert len(list(side.iter_all_entries())) == 2


class TestDiscard:
    def test_discard_updates_counters(self, side):
        entry = side.insert(tup(1), 1, now=1.0)
        side.table.remove_value(1)
        side.discard_entry(entry)
        assert side.tuples_discarded == 1
