"""SkewAwarePolicy: spill cold buckets first, keep hot state warm."""

import repro.skew.sketch
from repro.memory.governor import MemoryGovernor
from repro.memory.policies import POLICIES, SkewAwarePolicy
from repro.sim.costs import CostModel
from repro.skew.sketch import FrequencySketch
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import PartitionedHashTable, stable_hash
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "seq")


def make_governor(policy="skew-aware", n_partitions=4):
    governor = MemoryGovernor(
        1.0, policy=policy, disk=SimulatedDisk(CostModel())
    )
    table = PartitionedHashTable(n_partitions=n_partitions)
    governor.register_side(0, table)
    return governor, table


def fill(table, keys):
    for seq, key in enumerate(keys):
        table.insert(
            Tuple(SCHEMA, (key, seq), ts=0.0, validate=False), key, 0.0
        )


def candidates(governor, table):
    return [
        (governor._by_key[0], p) for p in table.partitions if p.memory_count
    ]


class TestSkewAwarePolicy:
    def test_registered(self):
        assert "skew-aware" in POLICIES
        assert isinstance(POLICIES["skew-aware"](), SkewAwarePolicy)

    def test_falls_back_to_largest_without_sketch(self):
        governor, table = make_governor()
        fill(table, [0] * 5 + [1])
        assert governor.sketch is None
        _, victim = governor.policy.select(candidates(governor, table), governor)
        assert victim is table.partition_for(0)

    def test_evicts_coldest_bucket_with_sketch(self):
        governor, table = make_governor()
        # Bucket(1) is larger but hot; bucket(2) is small and cold.
        fill(table, [1] * 5 + [2])
        sketch = FrequencySketch()
        sketch.observe(1, count=100)
        sketch.observe(2, count=1)
        governor.sketch = sketch
        _, victim = governor.policy.select(candidates(governor, table), governor)
        assert victim is table.partition_for(2)

    def test_heat_ties_break_on_size(self):
        governor, table = make_governor()
        fill(table, [1] * 5 + [2])  # neither key observed: both heat 0
        governor.sketch = FrequencySketch()
        _, victim = governor.policy.select(candidates(governor, table), governor)
        assert victim is table.partition_for(1)  # larger of the equally-cold

    def test_spill_reuses_each_entrys_cached_hash(self, monkeypatch):
        """Scoring a candidate hashes no value whose entry carries a hash."""
        governor, table = make_governor(n_partitions=8)
        sketch = FrequencySketch(top_k=2)
        for key in range(12):  # keys past the top 2 are not monitored
            sketch.observe(key, count=key + 1)
        governor.sketch = sketch
        for seq, key in enumerate(range(12)):
            table.insert(
                Tuple(SCHEMA, (key, seq), ts=0.0, validate=False), key, 0.0,
                stable_hash(key),
            )
        calls = []

        def counted(value):
            calls.append(value)
            return stable_hash(value)

        monkeypatch.setattr(repro.skew.sketch, "stable_hash", counted)
        governor.after_insert(0, 11, stable_hash(11))
        assert governor.spills > 0
        assert calls == []
