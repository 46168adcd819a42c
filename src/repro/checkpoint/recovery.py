"""The per-shard runner: cover-aligned segments and crash recovery.

:func:`run_checkpointed_shard` runs one shard's routed schedules.  With
a checkpoint interval it slices them at punctuation-cover boundaries
(every ``checkpoint_every``-th join-exploitable punctuation time) and
runs each slice as its own mini simulation: a fresh engine and
operator, the operator restored from the previous segment's snapshot.
Schedule times are absolute, and
:class:`~repro.streams.source.StreamSource` schedules each item at
``max(item_time, now)``, so the virtual timeline is continuous across
segments — probe histories, residency intervals and the last full
disk-join time all carry absolute times through the snapshot, which is
what keeps the timestamp dedupe rules exact across a resume.  Without
one the slice runs as a single segment.

Each segment ends with the mini-run's end-of-stream quiesce (full disk
join, purge buffers cleared, pending propagation released), so the cut
is *purge-complete*: the snapshot owes no deferred work.  By the
result-multiset invariance the sharding layer already relies on,
finishing deferred work earlier than the unsegmented run only shifts
emission times — every pair is still produced exactly once, so the
segmented/recovered run reproduces the unsharded result multiset.

A seeded crash (:class:`CrashSpec`) is recovered the same way in a
forked worker and in-process: the shard restarts from the latest
checkpoint its run reported and replays the schedule suffix past it.
The worker pool of :mod:`repro.shard.backend` respawns a dead worker;
:func:`run_shard_with_recovery` does it in the same process, and the
crash-at-any-event-index property test drives it.
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.checkpoint.store import CheckpointStore
from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import RecoveryError
from repro.memory.budget import GovernorSpec
from repro.obs.manifest import operator_counters
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.workloads.generator import GeneratedWorkload, Schedule

# Every sharded run reports these per shard, as ``recovery.<name>``.
RECOVERY_COUNTERS = (
    "checkpoints_taken",
    "crashes_detected",
    "workers_respawned",
    "events_replayed",
)

OnCheckpoint = Callable[[PyTuple[int, int], Dict[str, Any]], None]


class CrashSpec:
    """A seeded crash: kill *shard*'s worker before its Nth delivery."""

    __slots__ = ("shard", "after_items")

    def __init__(self, shard: int, after_items: int) -> None:
        if after_items < 1:
            raise RecoveryError(
                f"crash after_items must be >= 1, got {after_items}"
            )
        self.shard = shard
        self.after_items = after_items

    def __repr__(self) -> str:
        return f"CrashSpec(shard={self.shard}, after_items={self.after_items})"


class SimulatedCrash(Exception):
    """Raised by the in-process crash trigger (never escapes the API)."""


class _CrashTrigger:
    """Counts operator deliveries; fires *action* before the Nth one."""

    __slots__ = ("remaining", "action", "fired")

    def __init__(self, after_items: int, action: Callable[[], None]) -> None:
        self.remaining = after_items
        self.action = action
        self.fired = False

    def arm(self, operator: Any) -> None:
        original = operator.push
        trigger = self

        def push(item: Any, port: int = 0) -> None:
            if not trigger.fired:
                trigger.remaining -= 1
                if trigger.remaining <= 0:
                    trigger.fired = True
                    trigger.action()
            original(item, port)

        operator.push = push


def cover_cut_times(
    schedules: Sequence[Schedule],
    join_fields: Sequence[str],
    every: int,
) -> List[float]:
    """Checkpoint cut times: every Nth join-exploitable cover boundary.

    Times are merged over all *schedules*, ascending and deduplicated;
    the cut lands *after* all items scheduled at that time (a cover's
    own purge has run by the time the segment quiesces).  These are the
    same punctuation-aligned boundaries the adaptive planner
    re-optimizes at (:mod:`repro.planner.reopt`).
    """
    if every < 1:
        raise RecoveryError(f"checkpoint_every must be >= 1, got {every}")
    times: List[float] = []
    for side, schedule in enumerate(schedules):
        field = join_fields[side]
        for time, item in schedule:
            if isinstance(item, Punctuation) and is_join_exploitable(item, field):
                times.append(time)
    times.sort()
    unique: List[float] = []
    for time in times:
        if not unique or time > unique[-1]:
            unique.append(time)
    return unique[every - 1 :: every]


def build_shard_join(
    plan: QueryPlan,
    workload: GeneratedWorkload,
    shard_index: int,
    config: Optional[PJoinConfig],
    governor: Optional[GovernorSpec] = None,
) -> PJoin:
    """Shard *shard_index*'s PJoin, on *plan*'s engine."""
    return PJoin(
        plan.engine,
        plan.cost_model,
        workload.schemas[0],
        workload.schemas[1],
        workload.join_fields[0],
        workload.join_fields[1],
        config=config,
        name=f"pjoin.shard{shard_index}",
        governor=governor,
    )


def _empty_outputs(keep_items: bool) -> Dict[str, Any]:
    return {
        "results": [] if keep_items else None,
        "result_count": 0,
        "punctuations": [],
        "punctuation_count": 0,
        "events": 0,
        "virtual_now": 0.0,
        "eos_time": None,
    }


def run_checkpointed_shard(
    shard_index: int,
    schedule_a: Schedule,
    schedule_b: Schedule,
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: Optional[int] = None,
    initial_state: Optional[Dict[str, Any]] = None,
    crash_after: Optional[int] = None,
    crash_action: Optional[Callable[[], None]] = None,
    on_checkpoint: Optional[OnCheckpoint] = None,
    final_snapshot: bool = False,
) -> Dict[str, Any]:
    """Run one shard's slice to completion; return its plain-dict outcome.

    With *keep_items* the outcome holds the shard's results as
    ``(values, ts)`` pairs and its output punctuations as ``(join
    pattern, ts)`` pairs.  *governor* is this shard's own (already
    split) budget share.

    With *checkpoint_every* the slice runs in cover-aligned segments;
    each cut is saved to a :class:`CheckpointStore`, whose counters
    merge into the outcome under ``checkpoint.*``, and reported to
    *on_checkpoint* as ``(positions, state)``.  Without it the slice
    runs as one segment and no store exists.  With
    ``final_snapshot=True`` the quiesced operator snapshot is returned
    under ``"final_state"`` (the rescale migration input).

    *initial_state* is a checkpoint payload (``{"operator": ...,
    "outputs": ...}``; missing outputs start empty) to resume from;
    *crash_after* arms a seeded crash before the Nth schedule-item
    delivery, firing *crash_action* (default: raise
    :class:`SimulatedCrash`).
    """
    store: Optional[CheckpointStore] = None
    cuts: List[float] = []
    if checkpoint_every is not None:
        store = CheckpointStore(SimulatedDisk(CostModel()))
        cuts = cover_cut_times(
            (schedule_a, schedule_b), workload.join_fields, checkpoint_every
        )
    times_a = [t for t, _item in schedule_a]
    times_b = [t for t, _item in schedule_b]
    len_a, len_b = len(schedule_a), len(schedule_b)
    segments: List[PyTuple[Optional[float], PyTuple[int, int]]] = []
    prev = (0, 0)
    for cut_ts in cuts:
        end = (bisect_right(times_a, cut_ts), bisect_right(times_b, cut_ts))
        if end == prev or end == (len_a, len_b):
            continue  # degenerate or final-coincident cut: no segment
        segments.append((cut_ts, end))
        prev = end
    segments.append((None, (len_a, len_b)))

    trigger: Optional[_CrashTrigger] = None
    if crash_after is not None:
        action = crash_action
        if action is None:
            def action() -> None:
                raise SimulatedCrash(
                    f"seeded crash on shard {shard_index} "
                    f"after {crash_after} deliveries"
                )
        trigger = _CrashTrigger(crash_after, action)

    acc = _empty_outputs(keep_items)
    op_state: Optional[Dict[str, Any]] = None
    if initial_state is not None:
        op_state = initial_state["operator"]
        for key, value in initial_state["outputs"].items():
            acc[key] = list(value) if isinstance(value, list) else value

    seq = 0
    start = (0, 0)
    join: Optional[PJoin] = None
    # Resume the virtual clock where the previous segment (or the
    # checkpointed run being resumed) left off.  The quiesce at a cut
    # can run past the next segment's first schedule times (the busy
    # tail), and the snapshot carries absolute-time dedupe metadata
    # (probe histories, departure timestamps) stamped during that tail;
    # restarting the clock at the raw schedule times would put those
    # stamps in the *future* of the new segment, breaking the
    # exactly-once pair rules.  StreamSource schedules each item at
    # ``max(item_time, now)``, so seeding ``now`` keeps the timeline
    # monotone across segments.
    resume_now = float(acc["virtual_now"])
    for cut_ts, end in segments:
        if end == start and initial_state is not None:
            continue  # an empty resumed suffix: nothing to deliver
        plan = QueryPlan()
        plan.engine.now = resume_now
        join = build_shard_join(plan, workload, shard_index, config, governor)
        if op_state is not None:
            join.restore_state(op_state)
        sink = Sink(plan.engine, plan.cost_model, keep_items=keep_items)
        join.connect(sink)
        if trigger is not None and not trigger.fired:
            trigger.arm(join)
        plan.add_source(
            schedule_a[start[0] : end[0]], join, port=0, name=f"A{shard_index}"
        )
        plan.add_source(
            schedule_b[start[1] : end[1]], join, port=1, name=f"B{shard_index}"
        )
        plan.run()
        # Accumulate this segment's outputs.
        out_join_index = join.join_indices[0]
        if keep_items:
            acc["results"].extend((tup.values, tup.ts) for tup in sink.results)
            acc["punctuations"].extend(
                (punct.patterns[out_join_index], punct.ts)
                for punct in sink.punctuations
            )
        acc["result_count"] += sink.tuple_count
        acc["punctuation_count"] += sink.punctuation_count
        acc["events"] += plan.engine.events_executed
        resume_now = plan.engine.now
        acc["virtual_now"] = max(acc["virtual_now"], resume_now)
        acc["eos_time"] = sink.eos_time
        start = end
        if cut_ts is not None and store is not None:
            op_state = join.snapshot_state()
            state = {"operator": op_state, "outputs": dict(acc)}
            store.save(shard_index, seq, cut_ts, end, state)
            if on_checkpoint is not None:
                on_checkpoint(end, state)
            seq += 1

    if join is None:
        # A resume whose unacknowledged suffix is empty: nothing runs,
        # but the outcome still needs an operator counter snapshot (and
        # a final state for rescale), so restore the carried state into
        # a quiet operator.
        join = build_shard_join(QueryPlan(), workload, shard_index, config, governor)
        if op_state is not None:
            join.restore_state(op_state)
    counters = operator_counters(join)
    if store is not None:
        for key, value in store.counters().items():
            counters[f"checkpoint.{key}"] = value
    outcome = {"shard": shard_index, "counters": counters, **acc}
    if final_snapshot:
        outcome["final_state"] = join.snapshot_state()
    return outcome


def run_shard_with_recovery(
    shard_index: int,
    schedule_a: Schedule,
    schedule_b: Schedule,
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: Optional[int] = None,
    initial_state: Optional[Dict[str, Any]] = None,
    crash_after: Optional[int] = None,
    final_snapshot: bool = False,
) -> Dict[str, Any]:
    """:func:`run_checkpointed_shard` in-process, recovering a seeded crash.

    The seeded crash raises mid-run.  Like a respawned worker, the
    shard restarts from the latest checkpoint its run reported (from
    *initial_state* when the crash precedes the first cut) and replays
    the schedule suffix past it.  Recovery bookkeeping is merged into
    the outcome's counters under ``recovery.*``.
    """
    recovery = dict.fromkeys(RECOVERY_COUNTERS, 0)
    latest: PyTuple[PyTuple[int, int], Optional[bytes]] = ((0, 0), None)

    def on_checkpoint(positions: PyTuple[int, int], state: Dict[str, Any]) -> None:
        # Kept pickled, as a respawned worker receives it through a pipe.
        nonlocal latest
        latest = (positions, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        recovery["checkpoints_taken"] += 1

    def run(
        suffix_a: Schedule, suffix_b: Schedule,
        state: Optional[Dict[str, Any]], crash: Optional[int],
    ) -> Dict[str, Any]:
        return run_checkpointed_shard(
            shard_index, suffix_a, suffix_b, workload,
            config=config, keep_items=keep_items, governor=governor,
            checkpoint_every=checkpoint_every, initial_state=state,
            crash_after=crash, on_checkpoint=on_checkpoint,
            final_snapshot=final_snapshot,
        )

    try:
        outcome = run(schedule_a, schedule_b, initial_state, crash_after)
    except SimulatedCrash:
        (done_a, done_b), saved = latest
        state = initial_state if saved is None else pickle.loads(saved)
        suffix_a, suffix_b = schedule_a[done_a:], schedule_b[done_b:]
        recovery["crashes_detected"] = recovery["workers_respawned"] = 1
        recovery["events_replayed"] = len(suffix_a) + len(suffix_b)
        outcome = run(suffix_a, suffix_b, state, None)
    for key, value in recovery.items():
        outcome["counters"][f"recovery.{key}"] = value
    return outcome
