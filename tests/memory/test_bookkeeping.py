"""The governor's O(1) bookkeeping against a full scan and a recount.

LRU enforcement reads its victim off the governor's touch order instead
of scoring every warm bucket, and the tables keep their portion sizes as
maintained counts.  These properties drive random operation sequences
(inserts with and without ``after_insert``, fault-ins, purges, spills,
disk purges, snapshots restored later and bucket restructures) and
check two things after every step:

* a reference governor kept here, which scores every warm, unpinned
  bucket on each pass (the scan every policy used before the touch
  order), demotes the same buckets in the same order, for all four
  policies, and leaves the same state behind;
* every maintained ``memory_count``/``cold_count``/``disk_count``, per
  bucket and per table, equals a recount of the portions.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint.rescale import RescalePlan, run_sharded_rescale
from repro.checkpoint.snapshot import restore_table_into, snapshot_table
from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.memory.budget import GovernorSpec
from repro.memory.governor import MemoryGovernor
from repro.memory.policies import POLICIES
from repro.sim.costs import CostModel
from repro.skew.partitioner import AdaptiveTable
from repro.skew.sketch import FrequencySketch
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import PartitionedHashTable, stable_hash
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads.generator import generate_workload

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA = Schema.of("key", "seq")
N_BASE = 8

sides = st.integers(0, 1)
keys = st.integers(0, 31)
buckets = st.integers(0, 4 * N_BASE)
insert = st.tuples(st.just("insert"), sides, keys, st.booleans())
operations = st.lists(
    st.one_of(
        insert,
        insert,
        insert,
        st.tuples(st.just("fault_in"), sides, keys),
        st.tuples(st.just("fault_in_partition"), sides, buckets),
        st.tuples(st.just("enforce")),
        st.tuples(st.just("purge"), sides, st.frozensets(keys, max_size=8)),
        st.tuples(st.just("spill"), sides, buckets),
        st.tuples(st.just("disk_purge"), sides, buckets, st.frozensets(keys)),
        st.tuples(st.just("snapshot"), sides),
        st.tuples(st.just("restore"), sides),
        st.tuples(st.just("set_depth"), st.integers(0, N_BASE - 1),
                  st.integers(0, 2)),
    ),
    min_size=4,
    max_size=60,
)


class ScanGovernor(MemoryGovernor):
    """The reference: every pass scores every warm, unpinned bucket."""

    def _victim(self):
        candidates = [
            (registration, partition)
            for registration in self._sides
            for partition in registration.table.partitions
            if partition.memory_count > 0
            and (registration.key, partition.index) not in self._pins
        ]
        return self.policy.select(candidates, self) if candidates else None


class World:
    """Two governed state sides and a log of every demotion."""

    def __init__(self, governor_class, policy, budget):
        self.governor = governor_class(
            float(budget), policy=policy, disk=SimulatedDisk(CostModel())
        )
        self.governor.sketch = FrequencySketch(top_k=8, width=64)
        self.tables = [AdaptiveTable(N_BASE), AdaptiveTable(N_BASE)]
        self.demoted = []
        for side, table in enumerate(self.tables):
            self.governor.register_side(
                side, table, covered_by=lambda value: value % 3 == 0
            )
            self._log_demotions(side, table)
        self.snapshots = {}
        self.seq = 0

    def _log_demotions(self, side, table):
        demote = table.demote_partition

        def logged(partition):
            self.demoted.append((side, partition.index))
            return demote(partition)

        table.demote_partition = logged

    def apply(self, op):
        kind, args = op[0], op[1:]
        governor = self.governor
        self.seq += 1
        if kind == "insert":
            side, key, governed = args
            self.tables[side].insert(
                Tuple(SCHEMA, (key, self.seq), validate=False), key,
                float(self.seq),
            )
            governor.sketch.observe(key)
            if governed:
                governor.after_insert(side, key)
        elif kind == "fault_in":
            governor.fault_in(args[0], args[1])
        elif kind == "fault_in_partition":
            partitions = self.tables[args[0]].partitions
            governor.fault_in_partition(
                args[0], partitions[args[1] % len(partitions)]
            )
        elif kind == "enforce":
            governor._enforce()
        elif kind == "purge":
            self.tables[args[0]].remove_where(lambda value: value in args[1])
        elif kind == "spill":
            table = self.tables[args[0]]
            partition = table.partitions[args[1] % len(table.partitions)]
            table.spill_partition(partition, float(self.seq))
        elif kind == "disk_purge":
            table = self.tables[args[0]]
            partition = table.partitions[args[1] % len(table.partitions)]
            table.remove_disk_where(partition, lambda value: value in args[2])
        elif kind == "snapshot":
            self.snapshots[args[0]] = snapshot_table(self.tables[args[0]])
        elif kind == "restore":
            table = self.tables[args[0]]
            snap = self.snapshots.get(args[0])
            # Restores into and from an unsplit layout only.
            if (
                snap is not None
                and len(snap["partitions"]) == snap["n_partitions"]
                and not any(table.depths)
            ):
                restore_table_into(table, snap)
        elif kind == "set_depth":
            base, depth = args
            if all(table.can_restructure(base) for table in self.tables):
                for table in self.tables:
                    table.set_depth(base, depth)

    def layout(self):
        return [
            [
                (
                    partition.index,
                    [(v, seqs(entries)) for v, entries in partition.memory.items()],
                    [(v, seqs(entries)) for v, entries in partition.cold],
                    seqs(partition.disk),
                )
                for partition in table.partitions
            ]
            for table in self.tables
        ]


def seqs(entries):
    return [entry.tup.values[1] for entry in entries]


def counts(table):
    """Maintained counts: per bucket, then the table's."""
    return (
        [(p.memory_count, p.cold_count, p.disk_count) for p in table.partitions],
        (table.memory_count, table.cold_count, table.disk_count),
    )


def recount(table):
    """The same counts, recomputed from the portions."""
    per_bucket = [
        (
            sum(map(len, p.memory.values())),
            sum(len(entries) for _value, entries in p.cold),
            len(p.disk),
        )
        for p in table.partitions
    ]
    return per_bucket, tuple(map(sum, zip(*per_bucket)))


@pytest.mark.parametrize("policy", sorted(POLICIES))
@SETTINGS
@given(budget=st.integers(1, 8), ops=operations)
def test_victims_match_full_scan(policy, budget, ops):
    world = World(MemoryGovernor, policy, budget)
    reference = World(ScanGovernor, policy, budget)
    for op in ops:
        world.apply(op)
        reference.apply(op)
        assert world.demoted == reference.demoted, op
        assert world.layout() == reference.layout(), op
    assert world.governor.counters() == reference.governor.counters()


@SETTINGS
@given(
    policy=st.sampled_from(sorted(POLICIES)),
    budget=st.integers(1, 8),
    ops=operations,
)
def test_maintained_counts_match_recount(policy, budget, ops):
    world = World(MemoryGovernor, policy, budget)
    for op in ops:
        world.apply(op)
        for table in world.tables:
            assert counts(table) == recount(table), op
        assert world.governor.usage() == sum(t.memory_count for t in world.tables)
        assert world.governor.cold_size() == sum(t.cold_count for t in world.tables)


def test_untouched_warm_bucket_is_the_lru_victim():
    """A bucket filled without after_insert ranks first, as in the scan."""
    governor = MemoryGovernor(4.0, policy="lru", disk=SimulatedDisk(CostModel()))
    table = PartitionedHashTable(4)
    governor.register_side(0, table)
    key_of = {}
    key = 0
    while len(key_of) < 4:
        key_of.setdefault(stable_hash(key) % 4, key)
        key += 1

    def insert(bucket, governed=True):
        k = key_of[bucket]
        table.insert(Tuple(SCHEMA, (k, 0), validate=False), k, 0.0)
        if governed:
            governor.after_insert(0, k)

    insert(0)
    insert(1)
    insert(2)
    insert(3, governed=False)  # warm, never touched; fills the budget
    insert(1)  # one over: the untouched bucket 3 goes, not bucket 0
    assert table.partitions[3].cold_count == 1
    assert table.partitions[3].memory_count == 0
    assert table.partitions[0].memory_count == 1


def test_restore_makes_lru_reread_the_buckets():
    """Restoring an older snapshot brings back a bucket LRU demoted since;
    the touch order must not miss it (keys 0, 1, 2 hit buckets 0, 1, 2)."""
    ops = [
        ("insert", 0, 0, True),
        ("insert", 0, 1, False),
        ("snapshot", 0),
        ("fault_in", 0, 1),
        ("enforce",),  # demotes bucket 0
        ("restore", 0),  # bucket 0 is warm again; no insert since
        ("insert", 0, 2, True),  # bucket 0 is the oldest touch
    ]
    world = World(MemoryGovernor, "lru", 1)
    reference = World(ScanGovernor, "lru", 1)
    for op in ops:
        world.apply(op)
        reference.apply(op)
    assert reference.demoted == [(0, 0), (0, 0)]
    assert world.demoted == reference.demoted


@pytest.mark.parametrize(
    "config, governor, tier",
    [
        (PJoinConfig(purge_threshold=3, memory_threshold=30), None, "disk"),
        (PJoinConfig(purge_threshold=3), GovernorSpec(12.0), "cold"),
    ],
)
def test_rescale_migration_counts_match_recount(
    monkeypatch, config, governor, tier
):
    """Every operator snapshot taken around a rescale (the old shards'
    final states and the migrated new ones) has maintained counts."""
    checked = Counter()
    snapshot_state = PJoin.snapshot_state

    def checking_snapshot(self):
        for side in self.sides:
            assert counts(side.table) == recount(side.table)
            checked["tables"] += 1
            checked["disk"] += side.table.disk_count
            checked["cold"] += side.table.cold_count
        return snapshot_state(self)

    monkeypatch.setattr(PJoin, "snapshot_state", checking_snapshot)
    workload = generate_workload(
        n_tuples_per_stream=240, punct_spacing_a=12, punct_spacing_b=12,
        seed=11,
    )
    run_sharded_rescale(
        workload,
        RescalePlan(2, 3, workload.end_time / 2),
        config=config,
        governor=governor,
        checkpoint_every=2,
    )
    assert checked["tables"] > 0 and checked[tier] > 0


def reinserted(partition):
    """The warm dict that re-inserting each cold entry would build."""
    memory = {value: list(entries) for value, entries in partition.memory.items()}
    for entry in partition.iter_cold():
        memory.setdefault(entry.join_value, []).append(entry)
    return [(value, seqs(entries)) for value, entries in memory.items()]


def test_restored_cold_runs_promote_like_the_originals():
    """Promotion builds what entry-by-entry re-insertion would; a
    snapshot keeps the flat demotion order, and the runs a restore
    builds promote to the same per-value lists and dict order."""
    world = World(MemoryGovernor, "lru", 2)
    for seq, key in enumerate([1, 5, 1, 9, 5, 1, 13, 17, 1]):
        world.apply(("insert", 0, key, seq % 2 == 0))
    table = world.tables[0]
    # Value 1 is cold in two runs around value 9, and warm again.
    bucket = table.partitions[1]
    assert [(v, seqs(e)) for v, e in bucket.cold] == [
        (1, [1, 3]), (9, [4]), (1, [6])
    ]
    assert list(bucket.memory) == [17, 1]
    copy = PartitionedHashTable(N_BASE)
    restore_table_into(copy, snapshot_table(table))
    assert snapshot_table(copy) == snapshot_table(table)
    for original, restored in zip(table.partitions, copy.partitions):
        expected = reinserted(original)
        original.promote()
        restored.promote()
        for promoted in (original, restored):
            assert [(v, seqs(e)) for v, e in promoted.memory.items()] == expected
