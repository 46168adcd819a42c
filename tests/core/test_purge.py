"""Unit tests for the purge rules (paper equations (1))."""

import pytest

from repro.core.purge import PurgeResult, purge_side
from repro.core.state import JoinStateSide
from repro.punctuations.punctuation import Punctuation
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA_A = Schema.of("key", "a", name="A")
SCHEMA_B = Schema.of("key", "b", name="B")


@pytest.fixture
def sides():
    return (
        JoinStateSide(SCHEMA_A, "key", n_partitions=4, side_name="A"),
        JoinStateSide(SCHEMA_B, "key", n_partitions=4, side_name="B"),
    )


def fill(side, schema, *keys):
    for i, key in enumerate(keys):
        side.insert(Tuple(schema, (key, i)), key, now=float(i))


class TestPurgeRules:
    def test_purges_tuples_covered_by_opposite_punctuations(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1, 1, 2, 3)
        side_b.add_punctuation(Punctuation.on_field(SCHEMA_B, "key", 1))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.discarded == 2
        assert result.buffered == 0
        assert side_a.total_size == 2

    def test_own_punctuations_do_not_purge_own_state(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1)
        side_a.add_punctuation(Punctuation.on_field(SCHEMA_A, "key", 1))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.removed == 0

    def test_range_punctuation_purges_by_pattern(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1, 5, 9, 20)
        side_b.add_punctuation(Punctuation.on_field(SCHEMA_B, "key", (0, 9)))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.discarded == 3
        assert [e.join_value for e in side_a.table.iter_memory()] == [20]

    def test_scan_counts_whole_memory(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1, 2, 3)
        side_b.add_punctuation(Punctuation.on_field(SCHEMA_B, "key", 99))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.scanned == 3
        assert result.removed == 0

    def test_no_punctuations_short_circuits(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1)
        result = purge_side(side_a, side_b, now=10.0)
        assert result.removed == 0

    def test_reclaims_covered_cold_entries_with_empty_warm_portion(self, sides):
        # Governor demotion pages every bucket out: nothing is warm, but
        # the cold entries are logically memory-resident and covered.
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1, 2, 1, 3)
        for partition in side_a.table.partitions:
            side_a.table.demote_partition(partition)
        assert side_a.memory_size == 0
        side_b.add_punctuation(Punctuation.on_field(SCHEMA_B, "key", 1))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.scanned == 0
        assert result.discarded == 2
        assert sorted(e.join_value for e in side_a.table.iter_cold()) == [2, 3]


class TestPurgeBufferInteraction:
    def test_covered_tuple_moves_to_buffer_when_opposite_has_disk(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1)
        fill(side_b, SCHEMA_B, 1)
        # Spill B's bucket for key 1 to disk.
        partition = side_b.table.partition_for(1)
        side_b.table.spill_partition(partition, now=5.0)
        side_b.add_punctuation(Punctuation.on_field(SCHEMA_B, "key", 1))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.buffered == 1
        assert result.discarded == 0
        assert len(side_a.purge_buffer) == 1
        assert side_a.purge_buffer[0].dts == 10.0

    def test_unrelated_disk_partition_does_not_buffer(self, sides):
        side_a, side_b = sides
        fill(side_a, SCHEMA_A, 1)
        # A disk portion in a DIFFERENT bucket must not force buffering.
        other_key = 2  # 1 % 4 != 2 % 4
        fill(side_b, SCHEMA_B, other_key)
        side_b.table.spill_partition(side_b.table.partition_for(other_key), now=5.0)
        side_b.add_punctuation(Punctuation.on_field(SCHEMA_B, "key", 1))
        result = purge_side(side_a, side_b, now=10.0)
        assert result.discarded == 1
        assert result.buffered == 0


class TestPurgeResult:
    def test_accumulates(self):
        total = PurgeResult()
        total += PurgeResult(scanned=5, discarded=2, buffered=1)
        total += PurgeResult(scanned=3, discarded=1, buffered=0)
        assert total.scanned == 8
        assert total.removed == 4
