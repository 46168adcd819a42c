"""Live shard rescaling: quiesce at a cover boundary, migrate, resume.

``run_sharded_rescale(workload, RescalePlan(K1, K2, t))`` runs the
first part of a workload on K1 shards, stops at the first *global*
punctuation-cover boundary at or after virtual time ``t``,
re-partitions the checkpointed join state across K2 shards, and
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
from typing import Any, Dict, List, Optional, Tuple as PyTuple

from repro.checkpoint.recovery import (
    DEFAULT_CHECKPOINT_EVERY,
    _empty_outputs,
    run_checkpointed_shard,
)
from repro.checkpoint.snapshot import restore_entry
from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import RecoveryError
from repro.memory.budget import GovernorSpec
from repro.punctuations.patterns import WILDCARD
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.query.plan import QueryPlan
from repro.shard.backend import ShardedRunOutcome, ShardPlan
from repro.shard.merger import AlignmentLedger
from repro.shard.operator import aggregate_counters
from repro.shard.routing import shard_of
from repro.storage.hash_table import stable_hash
from repro.storage.partition import INFINITY
from repro.workloads.generator import GeneratedWorkload


class RescalePlan:
    """A ``K1 -> K2`` rescale at the first cover boundary after ``at_ts``."""

    __slots__ = ("n_before", "n_after", "at_ts")

    def __init__(self, n_before: int, n_after: int, at_ts: float) -> None:
        if n_before < 1 or n_after < 1:
            raise RecoveryError(
                f"rescale shard counts must be >= 1, got {n_before}:{n_after}"
            )
        if at_ts < 0:
            raise RecoveryError(f"rescale time must be >= 0, got {at_ts}")
        self.n_before = n_before
        self.n_after = n_after
        self.at_ts = at_ts

    def __repr__(self) -> str:
        return f"RescalePlan({self.n_before}:{self.n_after}@{self.at_ts:g})"


def _global_cut(workload: GeneratedWorkload, at_ts: float) -> float:
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


def _split_schedules(
    workload: GeneratedWorkload, cut_ts: float
) -> PyTuple[PyTuple[list, list], PyTuple[list, list]]:
    """Split both schedules at the cut: prefix ``ts <= T*``, suffix after."""
    prefixes: List[list] = []
    suffixes: List[list] = []
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
    name: str,
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
        plan = QueryPlan()
        join = PJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
            config=config,
            name=f"{name}.shard{shard}",
        )
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


class RescaleOutcome:
    """The merged view of one rescaled run (mirrors ShardedRunOutcome)."""

    def __init__(
        self,
        phase1_results: Optional[List[PyTuple[tuple, float]]],
        phase1_punctuations: List[PyTuple[Any, float]],
        phase1_outcomes: List[Dict[str, Any]],
        phase2: ShardedRunOutcome,
        rescale_counters: Dict[str, Any],
        keep_items: bool,
    ) -> None:
        self.n_shards = phase2.n_shards
        self.shard_outcomes = phase1_outcomes + phase2.shard_outcomes
        self.result_count = (
            sum(o["result_count"] for o in phase1_outcomes) + phase2.result_count
        )
        self.events = sum(o["events"] for o in phase1_outcomes) + phase2.events
        self.virtual_now = max(
            [phase2.virtual_now]
            + [o["virtual_now"] for o in phase1_outcomes]
        )
        if keep_items:
            self.results: Optional[List[PyTuple[tuple, float]]] = sorted(
                (phase1_results or []) + phase2.results, key=lambda r: r[1]
            )
        else:
            self.results = None
        self.punctuations = list(phase1_punctuations) + list(phase2.punctuations)
        self.punctuations_unaligned = phase2.punctuations_unaligned
        self.counters = aggregate_counters(
            [o["counters"] for o in self.shard_outcomes]
        )
        self.counters["shards"] = self.n_shards
        for key, value in rescale_counters.items():
            self.counters[f"rescale.{key}"] = value

    def result_multiset(self) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for values, _ts in self.results or []:
            counts[values] = counts.get(values, 0) + 1
        return counts

    def punctuation_multiset(self) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for pattern, _ts in self.punctuations:
            counts[pattern] = counts.get(pattern, 0) + 1
        return counts


def run_sharded_rescale(
    workload: GeneratedWorkload,
    rescale: RescalePlan,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    name: str = "pjoin",
) -> RescaleOutcome:
    """Run *workload* on K1 shards, rescale to K2 at the cut, finish.

    Both phases run the in-process checkpointed shard runner; the
    result and punctuation multisets equal the unsharded operator's
    (``repro check recovery_smoke`` asserts exactly that).
    """
    cut_ts = _global_cut(workload, rescale.at_ts)
    prefix, suffix = _split_schedules(workload, cut_ts)
    prefix_workload = GeneratedWorkload(workload.spec, prefix[0], prefix[1])

    # ---- Phase 1: K1 shards over the prefix, quiescing at the cut ----
    k1 = rescale.n_before
    plan1 = ShardPlan(prefix_workload, k1)
    governors1 = (
        governor.split(k1) if governor is not None else [None] * k1
    )
    outcomes1: List[Dict[str, Any]] = []
    for shard in range(k1):
        outcomes1.append(
            run_checkpointed_shard(
                shard,
                plan1.schedules[shard][0],
                plan1.schedules[shard][1],
                prefix_workload,
                config=config,
                keep_items=True,  # punctuations drive the ledger replay
                governor=governors1[shard],
                checkpoint_every=checkpoint_every,
                final_snapshot=True,
                name=name,
            )
        )

    # Replay the prefix's alignment ledger to find which promises were
    # fully merged in phase 1 and which are still owed to the suffix.
    ledger = AlignmentLedger()
    registered = []
    for _ts, side, pattern, cover in plan1.registrations:
        sub = ledger.register(pattern, cover)
        if sub is not None:
            registered.append((side, sub))
    arrivals = []
    for outcome in outcomes1:
        for index, (pattern, ts) in enumerate(outcome["punctuations"]):
            arrivals.append((ts, outcome["shard"], index, pattern))
    arrivals.sort(key=lambda a: (a[0], a[1], a[2]))
    phase1_punctuations: List[PyTuple[Any, float]] = []
    for ts, shard, _index, pattern in arrivals:
        matched, original = ledger.settle(shard, pattern)
        if matched and original is not None:
            phase1_punctuations.append((original, ts))
    unsettled = [(side, sub.original) for side, sub in registered if sub.remaining]

    # ---- Migration: re-bucket state, re-deliver open promises --------
    k2 = rescale.n_after
    final_states = [outcome.pop("final_state") for outcome in outcomes1]
    # The migrated dedupe metadata is stamped at the latest final clock
    # over the old shards; the new shards come up one virtual tick
    # later, so every post-migration arrival is strictly newer than
    # every migrated probe/departure stamp.
    resume_ts = max(outcome["virtual_now"] for outcome in outcomes1)
    states2, migrated = _migrate_states(
        final_states, workload, config, k2, resume_ts, name
    )
    replay_items: List[list] = [[], []]
    for side, pattern in unsettled:
        replay_items[side].append(
            (cut_ts, _rebuild_punctuation(workload, side, pattern, cut_ts))
        )
    suffix_workload = GeneratedWorkload(
        workload.spec,
        replay_items[0] + suffix[0],
        replay_items[1] + suffix[1],
    )

    # ---- Phase 2: K2 shards over the suffix ---------------------------
    plan2 = ShardPlan(suffix_workload, k2)
    governors2 = (
        governor.split(k2) if governor is not None else [None] * k2
    )
    outcomes2: List[Dict[str, Any]] = []
    for shard in range(k2):
        outputs = _empty_outputs(True)
        outputs["virtual_now"] = resume_ts + 1.0
        outcomes2.append(
            run_checkpointed_shard(
                shard,
                plan2.schedules[shard][0],
                plan2.schedules[shard][1],
                suffix_workload,
                config=config,
                keep_items=True,
                governor=governors2[shard],
                checkpoint_every=checkpoint_every,
                initial_state={
                    "operator": states2[shard],
                    "outputs": outputs,
                },
                name=name,
            )
        )
    phase2 = ShardedRunOutcome(plan2, outcomes2)

    rescale_counters = {
        "cut_ts": cut_ts,
        "shards_before": k1,
        "shards_after": k2,
        "migrated_tuples": migrated["tuples"],
        "migrated_disk_tuples": migrated["disk_tuples"],
        "replayed_punctuations": len(unsettled),
    }
    phase1_results = None
    if keep_items:
        phase1_results = []
        for outcome in outcomes1:
            phase1_results.extend(outcome["results"] or [])
    return RescaleOutcome(
        phase1_results,
        phase1_punctuations,
        outcomes1,
        phase2,
        rescale_counters,
        keep_items,
    )
