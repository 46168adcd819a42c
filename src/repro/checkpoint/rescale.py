"""Live shard rescaling: quiesce at a cover boundary, migrate, resume.

``run_sharded(workload, K1, rescale=RescalePlan(K2, t))``
(:mod:`repro.shard.backend`) runs the first part of a workload on K1
shards, stops at the first *global* punctuation-cover boundary at or
after virtual time ``t`` (:func:`global_cut`), re-partitions the
checkpointed join state across K2 shards (:func:`migrate`), and
finishes the run there.  The cut must be a cover
boundary for the same reason checkpoints sit on one: the quiesce runs
every shard's end-of-segment disk join and propagation, so the
migrated snapshot owes no deferred work and the timestamp-dedupe
metadata can be summarised by a single cut time.

**State migration.**  Every state entry in the K1 final snapshots is
re-bucketed by ``shard_of(join_value, K2)`` — the same hash the router
uses, so migrated entries land exactly where the suffix's tuples will
be routed.  Entries keep their absolute ``ats``/``dts`` residency
intervals (the basis of pair dedupe); cold-tier entries re-enter the
warm memory portion (the new shard's governor re-demotes under its own
re-split budget); disk entries stay disk-resident.  Each migrated
partition starts with ``probe_history = [T*]`` and the operator with
``last_full_disk_join = T*``: the quiesce at the cut really did join
everything, so all pre-cut pairs read as already produced and only
pairs involving post-cut arrivals are emitted in phase 2.

**Punctuation migration.**  Migrated stores start *empty*.  Instead,
every prefix punctuation whose alignment subscription is still
unsettled at the cut (some covering shard never propagated its piece —
its promised purge work is not finished) is re-delivered at ``T*``
through the K2 router: it re-purges whatever migrated state it covers
and eventually propagates from the new shard set, emitting the merged
original exactly once.  Settled subscriptions already emitted their
original in phase 1 and are not replayed — the same
exactly-once-per-promise rule the unsharded store enforces by removing
propagated punctuations.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple as PyTuple

from repro.checkpoint.recovery import build_shard_join
from repro.checkpoint.snapshot import restore_entry
from repro.core.config import PJoinConfig
from repro.errors import RecoveryError
from repro.punctuations.patterns import WILDCARD
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.query.plan import QueryPlan
from repro.shard.routing import shard_of
from repro.storage.hash_table import stable_hash
from repro.storage.partition import INFINITY
from repro.workloads.generator import GeneratedWorkload, Schedule

if TYPE_CHECKING:
    from repro.shard.backend import ShardedRunOutcome


class RescalePlan:
    """A move to *n_after* shards at the first cover boundary after *at_ts*."""

    __slots__ = ("n_after", "at_ts")

    def __init__(self, n_after: int, at_ts: float) -> None:
        if n_after < 1:
            raise RecoveryError(
                f"rescale shard count must be >= 1, got {n_after}"
            )
        if at_ts < 0:
            raise RecoveryError(f"rescale time must be >= 0, got {at_ts}")
        self.n_after = n_after
        self.at_ts = at_ts

    def __repr__(self) -> str:
        return f"RescalePlan({self.n_after}@{self.at_ts:g})"


def global_cut(workload: GeneratedWorkload, at_ts: float) -> float:
    """First join-exploitable punctuation time at or after *at_ts*."""
    best: Optional[float] = None
    for side in (0, 1):
        field = workload.join_fields[side]
        for time, item in workload.schedules[side]:
            if not isinstance(item, Punctuation):
                continue
            if not is_join_exploitable(item, field):
                continue
            if time >= at_ts and (best is None or time < best):
                best = time
    if best is None:
        raise RecoveryError(
            f"no punctuation-cover boundary at or after t={at_ts:g}; "
            "a rescale can only quiesce at a cover boundary"
        )
    return best


def split_schedules(
    workload: GeneratedWorkload, cut_ts: float
) -> PyTuple[PyTuple[Schedule, Schedule], PyTuple[Schedule, Schedule]]:
    """Split both schedules at the cut: prefix ``ts <= T*``, suffix after."""
    prefixes: List[Schedule] = []
    suffixes: List[Schedule] = []
    for side in (0, 1):
        schedule = workload.schedules[side]
        times = [t for t, _item in schedule]
        pos = bisect_right(times, cut_ts)
        prefixes.append(list(schedule[:pos]))
        suffixes.append(list(schedule[pos:]))
    return (prefixes[0], prefixes[1]), (suffixes[0], suffixes[1])


def _migrate_states(
    final_states: List[Dict[str, Any]],
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig],
    n_after: int,
    resume_ts: float,
) -> PyTuple[List[Dict[str, Any]], Dict[str, int]]:
    """Re-bucket K1 final operator snapshots into K2 initial snapshots.

    Builds one quiet operator per new shard, places every migrated
    entry in its hash bucket, stamps the cut-time dedupe metadata and
    snapshots the result — so the migrated state has exactly the shape
    ``PJoin.restore_state`` expects, with fresh (zeroed) counters,
    empty punctuation stores/indexes and empty purge buffers.
    """
    # Gather entries per (new_shard, side, tier), preserving old-shard
    # and bucket order so the migration is deterministic.
    buckets: List[List[Dict[str, List[Any]]]] = [
        [{"memory": [], "disk": []} for _side in (0, 1)]
        for _shard in range(n_after)
    ]
    migrated = {"tuples": 0, "disk_tuples": 0}
    for final in final_states:
        for side_index, side_snap in enumerate(final["sides"]):
            if side_snap["purge_buffer"]:
                raise RecoveryError(
                    "rescale cut is not purge-complete: "
                    f"{side_snap['side_name']} still holds a purge buffer"
                )
            for part_snap in side_snap["table"]["partitions"]:
                for _value, entries in part_snap["memory"]:
                    for snap in entries:
                        target = shard_of(snap[1], n_after)
                        buckets[target][side_index]["memory"].append(snap)
                for snap in part_snap["cold"]:
                    # Cold entries are logically memory-resident; the
                    # new shard's governor re-demotes under its budget.
                    target = shard_of(snap[1], n_after)
                    buckets[target][side_index]["memory"].append(snap)
                for snap in part_snap["disk"]:
                    target = shard_of(snap[1], n_after)
                    buckets[target][side_index]["disk"].append(snap)

    states: List[Dict[str, Any]] = []
    for shard in range(n_after):
        join = build_shard_join(QueryPlan(), workload, shard, config)
        any_disk = False
        for side_index in (0, 1):
            side = join.sides[side_index]
            table = side.table
            n = table.n_partitions
            for snap in buckets[shard][side_index]["memory"]:
                entry = restore_entry(snap)
                entry.pid = None  # stores start empty; nothing is indexed
                entry.dts = INFINITY
                h = entry.join_hash
                if h is None:
                    h = stable_hash(entry.join_value)
                table.partitions[h % n].insert(entry)
                table.total_inserted += 1
                migrated["tuples"] += 1
            for snap in buckets[shard][side_index]["disk"]:
                entry = restore_entry(snap)
                entry.pid = None
                h = entry.join_hash
                if h is None:
                    h = stable_hash(entry.join_value)
                part = table.partitions[h % n]
                part.disk.append(entry)
                if entry.dts > part.last_spill_ts:
                    part.last_spill_ts = entry.dts
                table.total_inserted += 1
                migrated["tuples"] += 1
                migrated["disk_tuples"] += 1
                any_disk = True
            table.recount()
            # The quiesce at the cut joined everything.  Its disk join
            # ran on each old shard's *busy tail* — at or after the cut
            # time but no later than that shard's final clock — so the
            # migrated buckets read as fully probed at the latest final
            # clock over all old shards (phase 2 resumes strictly after
            # it), and only post-migration arrivals produce new
            # disk-join pairs.
            for part in table.partitions:
                part.probe_history = [resume_ts]
        join._last_full_disk_join = resume_ts
        # _has_pending_disk_work fast-path gates on spills: hint one so
        # migrated disk portions stay visible to the scan.
        join.spills = 1 if any_disk else 0
        states.append(join.snapshot_state())
    return states, migrated


def _rebuild_punctuation(
    workload: GeneratedWorkload, side: int, pattern: Any, ts: float
) -> Punctuation:
    schema = workload.schemas[side]
    join_index = schema.index_of(workload.join_fields[side])
    patterns = [WILDCARD] * schema.arity
    patterns[join_index] = pattern
    return Punctuation(schema, patterns, ts=ts)


def migrate(
    workload: GeneratedWorkload,
    rescale: RescalePlan,
    cut_ts: float,
    suffix: PyTuple[Schedule, Schedule],
    first: ShardedRunOutcome,
    config: Optional[PJoinConfig],
) -> PyTuple[GeneratedWorkload, List[Dict[str, Any]], Dict[str, Any]]:
    """Move the first phase's quiesced state to ``rescale.n_after`` shards.

    *first* is the first phase's outcome, run over the prefix with
    final snapshots.  Returns the workload the new shards run (the
    still-unsettled promises re-delivered at the cut, then the
    *suffix*), each new shard's initial runner state, and the
    ``rescale.*`` counters.
    """
    final_states = [outcome.pop("final_state") for outcome in first.shard_outcomes]
    # The migrated dedupe metadata is stamped at the latest final clock
    # over the old shards; the new shards come up one virtual tick
    # later, so every post-migration arrival is strictly newer than
    # every migrated probe/departure stamp.
    resume_ts = first.duration_ms
    states, migrated = _migrate_states(
        final_states, workload, config, rescale.n_after, resume_ts
    )
    replay_items: List[Schedule] = [[], []]
    for side, pattern in first.unsettled:
        replay_items[side].append(
            (cut_ts, _rebuild_punctuation(workload, side, pattern, cut_ts))
        )
    suffix_workload = GeneratedWorkload(
        workload.spec,
        replay_items[0] + suffix[0],
        replay_items[1] + suffix[1],
    )
    initial_states = [
        {"operator": state, "outputs": {"virtual_now": resume_ts + 1.0}}
        for state in states
    ]
    counters = {
        "cut_ts": cut_ts,
        "shards_before": first.n_shards,
        "shards_after": rescale.n_after,
        "migrated_tuples": migrated["tuples"],
        "migrated_disk_tuples": migrated["disk_tuples"],
        "replayed_punctuations": len(first.unsettled),
    }
    return suffix_workload, initial_states, counters
