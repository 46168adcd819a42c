"""Removal by join value equals a per-entry scan of the same state.

Purges decide coverage by join value, so the state tables call the
purge predicate once per distinct value of each portion and pop a
covered value's whole entry list.  This property pins that against a
reference that asks the predicate about every entry, over random insert
sequences with some buckets demoted to the cold portion or spilled to
disk along the way: the removed entries (and their order), the
surviving per-value lists and dict order, the cold portion's
``(value, entries)`` runs, the disk lists and every maintained count
must all agree, kept per-value lists must stay the same list objects,
and the predicate must run exactly once per distinct value per portion.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.hash_table import PartitionedHashTable
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA = Schema.of("key", "seq")

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 15)),
        st.tuples(st.just("demote"), st.integers(0, 5)),
        st.tuples(st.just("spill"), st.integers(0, 5)),
    ),
    max_size=80,
)


def build(n_partitions, operations):
    table = PartitionedHashTable(n_partitions)
    for seq, (op, arg) in enumerate(operations):
        if op == "insert":
            table.insert(Tuple(SCHEMA, (arg, seq)), arg, float(seq))
        elif op == "demote":
            table.demote_partition(table.partitions[arg % n_partitions])
        else:
            table.spill_partition(table.partitions[arg % n_partitions], float(seq))
    return table


def per_entry_remove(table, covered):
    """The reference: ask about every entry, keep the rest in place."""
    removed = []
    for partition in table.partitions:
        for value in list(partition.memory):
            keep = []
            for entry in partition.memory[value]:
                (removed if covered(entry.join_value) else keep).append(entry)
            if keep:
                partition.memory[value] = keep
            else:
                del partition.memory[value]
        partition.memory_count = sum(map(len, partition.memory.values()))
        runs = []
        for value, entries in partition.cold:
            keep = []
            for entry in entries:
                (removed if covered(entry.join_value) else keep).append(entry)
            if keep:
                runs.append((value, keep))
        partition.cold = runs
        partition.cold_count = sum(len(entries) for _value, entries in runs)
    disk = []
    for partition in table.partitions:
        disk.extend(e for e in partition.disk if covered(e.join_value))
        partition.disk = [e for e in partition.disk if not covered(e.join_value)]
        partition.disk_count = len(partition.disk)
    table.memory_count = sum(p.memory_count for p in table.partitions)
    table.cold_count = sum(p.cold_count for p in table.partitions)
    table.disk_count = sum(p.disk_count for p in table.partitions)
    return removed, disk


def seqs(entries):
    return [e.tup.values[1] for e in entries]


def layout(table):
    return (
        (table.memory_count, table.cold_count, table.disk_count),
        [
            (
                (p.memory_count, p.cold_count, p.disk_count),
                [(value, seqs(entries)) for value, entries in p.memory.items()],
                [(value, seqs(entries)) for value, entries in p.cold],
                seqs(p.disk),
            )
            for p in table.partitions
        ],
    )


def distinct(values):
    return list(dict.fromkeys(values))


@SETTINGS
@given(
    n_partitions=st.integers(1, 6),
    operations=ops,
    covered_values=st.frozensets(st.integers(0, 15)),
)
def test_value_removal_matches_per_entry_scan(
    n_partitions, operations, covered_values
):
    table = build(n_partitions, operations)
    reference = build(n_partitions, operations)
    expected_calls = []
    for p in table.partitions:
        expected_calls += list(p.memory)
        expected_calls += distinct(value for value, _entries in p.cold)
    expected_disk_calls = [
        distinct(e.join_value for e in p.disk) for p in table.partitions
    ]
    lists_before = {
        (p.index, value): entries
        for p in table.partitions
        for value, entries in p.memory.items()
    }
    calls = []

    def covered(value):
        calls.append(value)
        return value in covered_values

    removed = table.remove_where(covered)
    assert calls == expected_calls  # once per distinct value per portion
    for p in table.partitions:  # kept lists are not rebuilt
        for value, entries in p.memory.items():
            assert entries is lists_before[(p.index, value)]
    disk_removed = []
    for p, expected in zip(table.partitions, expected_disk_calls):
        calls.clear()
        disk_removed += table.remove_disk_where(p, covered)
        assert calls == expected

    want_removed, want_disk = per_entry_remove(
        reference, lambda value: value in covered_values
    )
    assert seqs(removed) == seqs(want_removed)
    assert seqs(disk_removed) == seqs(want_disk)
    assert layout(table) == layout(reference)
