"""Property tests: snapshot -> restore of join state is *exact*.

Exactness is the whole recovery argument: the dedupe machinery
(``ats``/``dts`` residency intervals, partition probe histories,
punctuation pids, index counts) must come back identical or a resumed
run silently duplicates or drops result pairs.  The round-trip
invariant checked here — restoring a snapshot and re-snapshotting
yields an equal dict — holds with and without governor activity
(cold-tier demoted buckets, disk-resident spilled entries).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.snapshot import (
    restore_side,
    restore_store_into,
    restore_table_into,
    snapshot_side,
    snapshot_store,
    snapshot_table,
)
from repro.core.pjoin import PJoin
from repro.core.state import JoinStateSide
from repro.errors import ConfigError
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import PunctuationStore
from repro.query.plan import QueryPlan
from repro.skew.manager import SkewSpec
from repro.skew.partitioner import AdaptiveTable
from repro.storage.partition import INFINITY
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "payload", name="S")

SETTINGS = settings(max_examples=25, deadline=None)


def make_tuple(key, ts):
    return Tuple(SCHEMA, (key, key * 7), ts=ts)


# ---------------------------------------------------------------------------
# PunctuationStore
# ---------------------------------------------------------------------------


def build_store(keys, remove_positions, with_wildcard):
    store = PunctuationStore(SCHEMA, "key")
    ts = 0.0
    for key in keys:
        store.add(Punctuation.on_field(SCHEMA, "key", key, ts=ts))
        ts += 1.0
    if with_wildcard:
        store.add(Punctuation.on_field(SCHEMA, "key", "*", ts=ts))
    if store.next_id:
        for position in remove_positions:
            store.remove(position % store.next_id)
    return store


@SETTINGS
@given(
    keys=st.lists(st.integers(0, 60), unique=True, max_size=25),
    remove_positions=st.lists(st.integers(0, 60), max_size=10),
    with_wildcard=st.booleans(),
)
def test_store_roundtrip_is_exact(keys, remove_positions, with_wildcard):
    store = build_store(keys, remove_positions, with_wildcard)
    snap = snapshot_store(store)

    fresh = PunctuationStore(SCHEMA, "key")
    restore_store_into(fresh, snap)

    assert snapshot_store(fresh) == snap
    assert len(fresh) == len(store)
    assert fresh.total_added == store.total_added
    assert fresh.next_id == store.next_id
    # Derived lookup structures answer identically on every probe value.
    for value in range(-1, 62):
        assert fresh.covers_value(value) == store.covers_value(value)
        assert fresh.covering_pids(value) == store.covering_pids(value)


# ---------------------------------------------------------------------------
# JoinStateSide (table + cold tier + disk + store + index)
# ---------------------------------------------------------------------------


def build_side(keys, punct_keys, demote_parts, spill_parts, n_partitions):
    side = JoinStateSide(SCHEMA, "key", n_partitions, side_name="A")
    ts = 0.0
    for key in keys:
        side.insert(make_tuple(key, ts), key, ts)
        ts += 1.0
    # Governor-style cold-tier demotion: entries leave the probe-hot
    # dict but stay memory-resident with dts = inf and their order.
    for index in demote_parts:
        side.table.demote_partition(side.table.partitions[index % n_partitions])
    # Spills stamp departure timestamps and sweep the cold tier too.
    for index in spill_parts:
        side.table.spill_partition(side.table.partitions[index % n_partitions], ts)
        ts += 1.0
    for part in side.table.partitions:
        part.record_probe(ts)
    for key in punct_keys:
        side.store.add(Punctuation.on_field(SCHEMA, "key", key, ts=ts))
        ts += 1.0
    all_entries = [
        entry
        for part in side.table.partitions
        for entries in part.memory.values()
        for entry in entries
    ]
    side.index.build(all_entries)
    return side


@SETTINGS
@given(
    keys=st.lists(st.integers(0, 40), min_size=1, max_size=30),
    punct_keys=st.lists(st.integers(0, 40), unique=True, max_size=8),
    demote_parts=st.lists(st.integers(0, 7), max_size=4),
    spill_parts=st.lists(st.integers(0, 7), max_size=4),
    n_partitions=st.sampled_from([1, 2, 4]),
)
def test_side_roundtrip_is_exact(
    keys, punct_keys, demote_parts, spill_parts, n_partitions
):
    side = build_side(keys, punct_keys, demote_parts, spill_parts, n_partitions)
    snap = snapshot_side(side)

    restored = restore_side(SCHEMA, "key", snap)

    assert snapshot_side(restored) == snap
    assert restored.table.memory_count == side.table.memory_count
    assert restored.table.total_inserted == side.table.total_inserted
    for got, want in zip(restored.table.partitions, side.table.partitions):
        assert list(got.memory) == list(want.memory)  # bucket order
        assert got.cold_count == want.cold_count
        assert len(got.disk) == len(want.disk)
        assert got.probe_history == want.probe_history
        # Cold-tier entries stay undeparted; disk entries carry stamps.
        assert all(entry.dts == INFINITY for entry in got.iter_cold())
        assert all(entry.dts < INFINITY for entry in got.disk)


def test_side_roundtrip_preserves_purge_buffer():
    side = build_side([1, 2, 3], [1], [], [], 2)
    # Park an entry in the purge buffer (the deferred-purge holding pen).
    part = side.table.partitions[0]
    for entries in list(part.memory.values()):
        side.purge_buffer.extend(entries)
    snap = snapshot_side(side)
    restored = restore_side(SCHEMA, "key", snap)
    assert snapshot_side(restored) == snap
    assert len(restored.purge_buffer) == len(side.purge_buffer)


# ---------------------------------------------------------------------------
# Skew layer: refused, never silently lossy
# ---------------------------------------------------------------------------


def test_split_adaptive_table_restore_is_refused():
    # A split bucket has more leaves than base buckets.  The plain
    # rebuild kept 28 of these 64 entries and lost key 13 entirely.
    table = AdaptiveTable(4)
    for key in range(64):
        table.insert(make_tuple(key, float(key)), key, ats=float(key))
    table.set_depth(1, 2)
    snap = snapshot_table(table)
    assert len(snap["partitions"]) == 7

    fresh = AdaptiveTable(4)
    before = snapshot_table(fresh)
    with pytest.raises(ConfigError, match="7 leaves into 4 buckets"):
        restore_table_into(fresh, snap)
    assert snapshot_table(fresh) == before  # refused before any change


def test_unsplit_adaptive_table_still_round_trips():
    table = AdaptiveTable(4)
    for key in range(16):
        table.insert(make_tuple(key, float(key)), key, ats=float(key))
    snap = snapshot_table(table)
    fresh = AdaptiveTable(4)
    restore_table_into(fresh, snap)
    assert snapshot_table(fresh) == snap
    assert len(fresh.probe(13)[1]) == 1


def test_pjoin_with_skew_layer_refuses_checkpoints():
    other = Schema.of("key", "payload", name="T")
    plan = QueryPlan()
    plain = PJoin(plan.engine, plan.cost_model, SCHEMA, other, "key", "key")
    snap = plain.snapshot_state()
    skewed = PJoin(
        plan.engine, plan.cost_model, SCHEMA, other, "key", "key",
        name="skewed", skew=SkewSpec(),
    )
    with pytest.raises(ConfigError, match="skew layer"):
        skewed.snapshot_state()
    with pytest.raises(ConfigError, match="skew layer"):
        skewed.restore_state(snap)
