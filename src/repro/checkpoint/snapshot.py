"""Exact snapshot/restore of every recoverable join structure.

A snapshot is a plain picklable dict (version-tagged) capturing a
structure *exactly* — not just the result-relevant parts.  Restoring a
snapshot and re-snapshotting yields an equal dict, which is what the
round-trip property tests assert.  Exactness matters because the
dedupe machinery (``ats``/``dts`` residency intervals, partition probe
histories, punctuation pids and index counts) is what guarantees a
resumed run emits each result pair exactly once; an approximate
restore would silently duplicate or drop pairs.

Structures covered:

* :class:`~repro.storage.partition.StateEntry` /
  :class:`~repro.storage.partition.HybridPartition` — including the
  governor's **cold tier** (demoted-but-memory-resident entries keep
  their order and their ``dts = inf``);
* :class:`~repro.storage.hash_table.PartitionedHashTable`;
* :class:`~repro.punctuations.store.PunctuationStore` — restored by
  replaying live/tombstoned slots in arrival order, so pids, the
  ``total_added == len(entries)`` invariant, and every derived lookup
  structure come back identical;
* :class:`~repro.core.index.PunctuationIndex` — counts, indexed pids
  and the build cursor;
* :class:`~repro.core.state.JoinStateSide` — table + purge buffer +
  store + index + side counters;
* :class:`~repro.resilience.disorder.DisorderBuffer` — the pending
  heap and released frontier (the "ledger" of in-flight disorder).

Operator-level payloads (PJoin/NaryPJoin/XJoin/SHJ) are built by the
operators' own ``snapshot_state``/``restore_state`` hooks on top of
these primitives.  All ``restore_*_into`` functions mutate in place so
every external reference (governor registrations, validator contracts,
the ``states`` alias) stays valid.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple as PyTuple

from repro.core.index import PunctuationIndex
from repro.core.state import JoinStateSide
from repro.errors import ConfigError
from repro.perf.interval import RangeIntervalIndex
from repro.punctuations.store import PunctuationStore
from repro.resilience.disorder import DisorderBuffer
from repro.storage.hash_table import PartitionedHashTable
from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.schema import Schema

SNAPSHOT_VERSION = 1

EntrySnap = PyTuple[Any, Any, Any, float, float, Any]

_SIDE_COUNTERS = (
    "unexploitable_punctuations",
    "duplicate_punctuations",
    "tuples_inserted",
    "tuples_discarded",
    "tuples_buffered",
)

_DISORDER_COUNTERS = ("items_buffered", "reordered", "late_releases", "max_held")


# ---------------------------------------------------------------------------
# State entries and partitions
# ---------------------------------------------------------------------------


def snapshot_entry(entry: StateEntry) -> EntrySnap:
    return (
        entry.tup,
        entry.join_value,
        entry.join_hash,
        entry.ats,
        entry.dts,
        entry.pid,
    )


def restore_entry(snap: EntrySnap) -> StateEntry:
    tup, join_value, join_hash, ats, dts, pid = snap
    entry = StateEntry(tup, join_value, ats, join_hash)
    entry.dts = dts
    entry.pid = pid
    return entry


def snapshot_partition(part: HybridPartition) -> Dict[str, Any]:
    return {
        # Memory as ordered (value, entries) pairs: dict insertion
        # order is part of the structure (probe results iterate it).
        "memory": [
            (value, [snapshot_entry(e) for e in entries])
            for value, entries in part.memory.items()
        ],
        "cold": [snapshot_entry(e) for e in part.iter_cold()],
        "disk": [snapshot_entry(e) for e in part.disk],
        "probe_history": list(part.probe_history),
        "last_insert_ts": part.last_insert_ts,
        "last_spill_ts": part.last_spill_ts,
    }


def restore_partition_into(part: HybridPartition, snap: Dict[str, Any]) -> None:
    part.memory = {
        value: [restore_entry(e) for e in entries]
        for value, entries in snap["memory"]
    }
    # One cold run per entry: promotion rebuilds the same lists from
    # any split of the demotion order into runs.
    cold = [restore_entry(e) for e in snap["cold"]]
    part.cold = [(entry.join_value, [entry]) for entry in cold]
    part.disk = [restore_entry(e) for e in snap["disk"]]
    part.probe_history = list(snap["probe_history"])
    part.last_insert_ts = snap["last_insert_ts"]
    part.last_spill_ts = snap["last_spill_ts"]


# ---------------------------------------------------------------------------
# Hash tables
# ---------------------------------------------------------------------------


def snapshot_table(table: PartitionedHashTable) -> Dict[str, Any]:
    return {
        "n_partitions": table.n_partitions,
        "partitions": [snapshot_partition(p) for p in table.partitions],
        "total_inserted": table.total_inserted,
    }


def restore_table_into(table: PartitionedHashTable, snap: Dict[str, Any]) -> None:
    n = snap["n_partitions"]
    leaves = len(snap["partitions"])
    if leaves != n:  # a split adaptive table: refuse, never truncate
        raise ConfigError(f"cannot restore {leaves} leaves into {n} buckets")
    table.n_partitions = n
    table.partitions = [HybridPartition(i) for i in range(n)]
    for part, psnap in zip(table.partitions, snap["partitions"]):
        restore_partition_into(part, psnap)
    table.recount()
    table.total_inserted = snap["total_inserted"]


# ---------------------------------------------------------------------------
# Punctuation stores and indexes
# ---------------------------------------------------------------------------


def snapshot_store(store: PunctuationStore) -> Dict[str, Any]:
    # Live and tombstoned slots in arrival order; punctuations are
    # immutable and shared by reference.
    return {
        "entries": list(store._entries),
        "check_prefix_consistency": store.check_prefix_consistency,
    }


def restore_store_into(store: PunctuationStore, snap: Dict[str, Any]) -> None:
    """Rebuild a store by replaying its slots in arrival order.

    A live slot goes through :meth:`PunctuationStore.add` (rebuilding
    every derived lookup structure); a tombstone reserves its pid, so
    ids and the ``total_added == len(entries)`` invariant round-trip.
    """
    store._entries = []
    store._constants = {}
    store._ranges = RangeIntervalIndex()
    store._enum_values = {}
    store._enum_patterns = {}
    store._wildcards = []
    store._general = []
    store._live_count = 0
    store.total_added = 0
    # The replayed punctuations already passed the consistency check
    # once; re-checking would re-pay the O(n^2) cost for nothing.
    store.check_prefix_consistency = False
    for punct in snap["entries"]:
        if punct is None:
            store._entries.append(None)
            store.total_added += 1
        else:
            store.add(punct)
    store.check_prefix_consistency = snap["check_prefix_consistency"]


def snapshot_index(index: PunctuationIndex) -> Dict[str, Any]:
    return {
        "counts": dict(index._counts),
        "indexed_pids": sorted(index._indexed_pids),
        "cursor": index._cursor,
        "build_runs": index.build_runs,
    }


def restore_index_into(index: PunctuationIndex, snap: Dict[str, Any]) -> None:
    index._counts = dict(snap["counts"])
    index._indexed_pids = set(snap["indexed_pids"])
    index._cursor = snap["cursor"]
    index.build_runs = snap["build_runs"]
    index.tagged = sum(index._counts.values())


# ---------------------------------------------------------------------------
# Join state sides
# ---------------------------------------------------------------------------


def snapshot_side(side: JoinStateSide) -> Dict[str, Any]:
    return {
        "version": SNAPSHOT_VERSION,
        "side_name": side.side_name,
        "table": snapshot_table(side.table),
        "purge_buffer": [snapshot_entry(e) for e in side.purge_buffer],
        "store": snapshot_store(side.store),
        "index": snapshot_index(side.index),
        "counters": {key: getattr(side, key) for key in _SIDE_COUNTERS},
    }


def restore_side_into(side: JoinStateSide, snap: Dict[str, Any]) -> None:
    restore_table_into(side.table, snap["table"])
    side.purge_buffer = [restore_entry(e) for e in snap["purge_buffer"]]
    restore_store_into(side.store, snap["store"])
    restore_index_into(side.index, snap["index"])
    for key, value in snap["counters"].items():
        setattr(side, key, value)


def restore_side(schema: Schema, join_field: str, snap: Dict[str, Any]) -> JoinStateSide:
    """Build a fresh :class:`JoinStateSide` from a snapshot."""
    side = JoinStateSide(
        schema,
        join_field,
        snap["table"]["n_partitions"],
        side_name=snap["side_name"],
    )
    restore_side_into(side, snap)
    return side


# ---------------------------------------------------------------------------
# Disorder-buffer ledger
# ---------------------------------------------------------------------------


def snapshot_disorder_buffer(buf: DisorderBuffer) -> Dict[str, Any]:
    return {
        "slack_ms": buf.slack_ms,
        "heap": list(buf._heap),
        "seq": buf._seq,
        "max_item_ts": buf._max_item_ts,
        "released_frontier": buf._released_frontier,
        "counters": {key: getattr(buf, key) for key in _DISORDER_COUNTERS},
    }


def restore_disorder_buffer_into(buf: DisorderBuffer, snap: Dict[str, Any]) -> None:
    buf.slack_ms = snap["slack_ms"]
    # The stored list is already heap-ordered; copying preserves it.
    buf._heap = list(snap["heap"])
    buf._seq = snap["seq"]
    buf._max_item_ts = snap["max_item_ts"]
    buf._released_frontier = snap["released_frontier"]
    for key, value in snap["counters"].items():
        setattr(buf, key, value)


# ---------------------------------------------------------------------------
# Validator (tracked stores + counters)
# ---------------------------------------------------------------------------


def snapshot_validator(validator: Any) -> Dict[str, Any]:
    """Counters plus any private tracked punctuation stores.

    ``StateSideContract`` views delegate to the sides' own stores
    (already covered by :func:`snapshot_side`); only the tracked views
    XJoin/SHJ use under non-trust policies carry state of their own.
    """
    tracked: List[Any] = []
    for contract in validator.contracts:
        store = getattr(contract, "store", None)
        tracked.append(snapshot_store(store) if store is not None else None)
    return {
        "violations": validator.violations,
        "quarantined": validator.quarantined,
        "punctuations_retracted": validator.punctuations_retracted,
        "tracked_stores": tracked,
    }


def restore_validator_into(validator: Any, snap: Dict[str, Any]) -> None:
    validator.violations = snap["violations"]
    validator.quarantined = snap["quarantined"]
    validator.punctuations_retracted = snap["punctuations_retracted"]
    for contract, store_snap in zip(validator.contracts, snap["tracked_stores"]):
        store = getattr(contract, "store", None)
        if store is not None and store_snap is not None:
            restore_store_into(store, store_snap)


# ---------------------------------------------------------------------------
# Shared operator-counter helpers (used by the operator hooks)
# ---------------------------------------------------------------------------

BASE_OPERATOR_COUNTERS = (
    "items_processed",
    "tuples_in",
    "punctuations_in",
    "tuples_out",
    "punctuations_out",
    "busy_time",
    "max_queue_length",
)

BINARY_JOIN_COUNTERS = ("results_produced", "probes", "probe_matches", "insertions")

MONITOR_FIELDS = (
    "punctuations_since_purge",
    "punctuations_since_propagation",
    "pairs_since_propagation",
    "last_propagation_time",
    "purge_events_fired",
    "state_full_events_fired",
    "propagation_events_fired",
)


def snapshot_attrs(obj: Any, names: PyTuple[str, ...]) -> Dict[str, Any]:
    return {name: getattr(obj, name) for name in names}


def restore_attrs(obj: Any, snap: Dict[str, Any]) -> None:
    for name, value in snap.items():
        setattr(obj, name, value)
