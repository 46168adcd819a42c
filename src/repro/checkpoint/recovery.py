"""Cover-aligned segmented execution and crash recovery.

The runner slices a shard's routed schedules at punctuation-cover
boundaries (every ``checkpoint_every``-th join-exploitable punctuation
time) and runs each slice as its own mini simulation: a fresh engine
and operator, the operator restored from the previous segment's
snapshot.  Schedule times are absolute, and
:class:`~repro.streams.source.StreamSource` schedules each item at
``max(item_time, now)``, so the virtual timeline is continuous across
segments — probe histories, residency intervals and the last full
disk-join time all carry absolute times through the snapshot, which is
what keeps the timestamp dedupe rules exact across a resume.

Each segment ends with the mini-run's end-of-stream quiesce (full disk
join, purge buffers cleared, pending propagation released), so the cut
is *purge-complete*: the snapshot owes no deferred work.  By the
result-multiset invariance the sharding layer already relies on,
finishing deferred work earlier than the unsegmented run only shifts
emission times — every pair is still produced exactly once, so the
segmented/recovered run reproduces the unsharded result multiset.

Crash recovery comes in two flavours sharing this runner:

* **in-process** (:func:`run_shard_with_recovery`) — the seeded crash
  raises, the supervisor restores the latest checkpoint and replays
  the suffix in the same process; this is what the
  crash-at-any-event-index property test drives;
* **multiprocess** (:func:`run_sharded_resilient`) — each shard runs
  in a forked worker streaming checkpoints to the parent; a seeded
  ``os._exit`` mid-run closes the pipe, the supervisor detects the
  EOF, respawns the worker with the latest checkpoint and the suffix
  retained in the router's bounded
  :class:`~repro.shard.router.InFlightLog`.
"""

from __future__ import annotations

import os
import traceback
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.checkpoint.store import Checkpoint, CheckpointStore
from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import RecoveryError, TransientIOError
from repro.memory.budget import GovernorSpec
from repro.obs.manifest import operator_counters
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.query.plan import QueryPlan
from repro.resilience.retry import DiskFaultProfile
from repro.shard.backend import (
    Schedule,
    ShardedRunOutcome,
    ShardPlan,
    fork_available,
)
from repro.shard.router import InFlightLog
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.workloads.generator import GeneratedWorkload

DEFAULT_CHECKPOINT_EVERY = 8
DEFAULT_MAX_RESPAWNS = 2
_CRASH_EXIT_CODE = 23


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
    schedule_a: Schedule,
    schedule_b: Schedule,
    join_fields: PyTuple[str, str],
    every: int = DEFAULT_CHECKPOINT_EVERY,
) -> List[float]:
    """Checkpoint cut times: every Nth join-exploitable cover boundary.

    Times are merged over both sides, ascending and deduplicated; the
    cut lands *after* all items scheduled at that time (a cover's own
    purge has run by the time the segment quiesces).
    """
    return cover_cut_times_n((schedule_a, schedule_b), join_fields, every)


def cover_cut_times_n(
    schedules: Sequence[Schedule],
    join_fields: Sequence[str],
    every: int = DEFAULT_CHECKPOINT_EVERY,
) -> List[float]:
    """:func:`cover_cut_times` over *n* schedules.

    The same punctuation-aligned boundaries the adaptive planner
    re-optimizes at (:mod:`repro.planner.reopt`): every Nth
    join-exploitable punctuation over all streams, merged ascending and
    deduplicated by time.
    """
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
    if every < 1:
        raise RecoveryError(f"checkpoint_every must be >= 1, got {every}")
    return unique[every - 1 :: every]


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
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    initial_state: Optional[Dict[str, Any]] = None,
    crash_after: Optional[int] = None,
    crash_action: Optional[Callable[[], None]] = None,
    on_checkpoint: Optional[Callable[[int, float, PyTuple[int, int], Dict[str, Any]], None]] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    checkpoint_fault_profile: Optional[DiskFaultProfile] = None,
    final_snapshot: bool = False,
    name: str = "pjoin",
) -> Dict[str, Any]:
    """Run one shard's slice in cover-aligned segments with checkpoints.

    Returns the same plain-dict outcome shape as
    :func:`repro.shard.backend.run_shard_simulation`, with the
    checkpoint store's counters merged in under ``checkpoint.*`` (and,
    with ``final_snapshot=True``, the quiesced operator snapshot under
    ``"final_state"`` — the rescale migration input).

    *initial_state* is a checkpoint payload (``{"operator": ...,
    "outputs": ...}``) to resume from; *crash_after* arms a seeded
    crash before the Nth schedule-item delivery, firing *crash_action*
    (default: raise :class:`SimulatedCrash`).
    """
    if checkpoint_store is None:
        checkpoint_store = CheckpointStore(
            SimulatedDisk(CostModel(), fault_profile=checkpoint_fault_profile)
        )
    times_a = [t for t, _item in schedule_a]
    times_b = [t for t, _item in schedule_b]
    len_a, len_b = len(schedule_a), len(schedule_b)

    cuts = cover_cut_times(
        schedule_a, schedule_b, tuple(workload.join_fields), checkpoint_every
    )
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

    if initial_state is not None:
        op_state: Optional[Dict[str, Any]] = initial_state["operator"]
        acc = {
            key: (list(value) if isinstance(value, list) else value)
            for key, value in initial_state["outputs"].items()
        }
    else:
        op_state = None
        acc = _empty_outputs(keep_items)

    checkpoints_failed = 0
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
        if end == start:
            continue  # empty segment: nothing to deliver, cut not needed
        plan = QueryPlan()
        plan.engine.now = resume_now
        join = PJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
            config=config,
            name=f"{name}.shard{shard_index}",
            governor=governor,
        )
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
        op_state = join.snapshot_state()
        if cut_ts is not None:
            state = {"operator": op_state, "outputs": dict(acc)}
            try:
                _ckpt, _cost = checkpoint_store.save(
                    shard_index, seq, cut_ts, end, state
                )
            except TransientIOError:
                # A checkpoint that cannot be persisted is skipped; the
                # run keeps going from the previous one.
                checkpoints_failed += 1
            else:
                if on_checkpoint is not None:
                    on_checkpoint(seq, cut_ts, end, state)
            seq += 1

    if join is None:
        # Every segment was empty — a shard that received no items, or
        # a resume whose unacknowledged suffix is empty.  Nothing runs,
        # but the outcome still needs an operator counter snapshot (and
        # a final state for rescale), so build a quiet operator and, on
        # resume, restore the carried state into it.
        plan = QueryPlan()
        join = PJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
            config=config,
            name=f"{name}.shard{shard_index}",
            governor=governor,
        )
        if op_state is not None:
            join.restore_state(op_state)
        op_state = join.snapshot_state()
    counters = operator_counters(join)
    for key, value in checkpoint_store.counters().items():
        counters[f"checkpoint.{key}"] = value
    if checkpoints_failed:
        counters["checkpoint.checkpoints_failed"] = checkpoints_failed
    outcome = {
        "shard": shard_index,
        "results": acc["results"] if keep_items else None,
        "result_count": acc["result_count"],
        "punctuations": acc["punctuations"] if keep_items else [],
        "punctuation_count": acc["punctuation_count"],
        "counters": counters,
        "events": acc["events"],
        "virtual_now": acc["virtual_now"],
        "eos_time": acc["eos_time"],
    }
    if final_snapshot:
        outcome["final_state"] = op_state
    return outcome


def run_shard_with_recovery(
    shard_index: int,
    schedule_a: Schedule,
    schedule_b: Schedule,
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    crash_after: Optional[int] = None,
    checkpoint_fault_profile: Optional[DiskFaultProfile] = None,
    name: str = "pjoin",
) -> Dict[str, Any]:
    """In-process crash recovery: crash, restore, replay the suffix.

    The seeded crash raises mid-run; the latest checkpoint (or a cold
    start when the crash precedes the first cut) is restored and the
    unacknowledged schedule suffix replayed.  Recovery bookkeeping is
    merged into the outcome's counters under ``recovery.*``.
    """
    store = CheckpointStore(
        SimulatedDisk(CostModel(), fault_profile=checkpoint_fault_profile)
    )
    recovery = {
        "crashes_detected": 0,
        "workers_respawned": 0,
        "events_replayed": 0,
    }
    try:
        outcome = run_checkpointed_shard(
            shard_index, schedule_a, schedule_b, workload,
            config=config, keep_items=keep_items, governor=governor,
            checkpoint_every=checkpoint_every, crash_after=crash_after,
            checkpoint_store=store, name=name,
        )
    except SimulatedCrash:
        recovery["crashes_detected"] = 1
        recovery["workers_respawned"] = 1
        checkpoint, _cost = store.load(shard_index)
        if checkpoint is not None:
            positions = checkpoint.positions
            initial_state: Optional[Dict[str, Any]] = checkpoint.state
        else:
            positions = (0, 0)
            initial_state = None
        suffix_a = schedule_a[positions[0] :]
        suffix_b = schedule_b[positions[1] :]
        recovery["events_replayed"] = len(suffix_a) + len(suffix_b)
        outcome = run_checkpointed_shard(
            shard_index, suffix_a, suffix_b, workload,
            config=config, keep_items=keep_items, governor=governor,
            checkpoint_every=checkpoint_every, initial_state=initial_state,
            checkpoint_store=store, name=name,
        )
    for key, value in recovery.items():
        outcome["counters"][f"recovery.{key}"] = value
    return outcome


# ---------------------------------------------------------------------------
# Supervised multiprocess backend
# ---------------------------------------------------------------------------


def _resilient_worker_main(
    conn: Any,
    shard_index: int,
    schedule_a: Schedule,
    schedule_b: Schedule,
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig],
    keep_items: bool,
    governor: Optional[GovernorSpec],
    checkpoint_every: int,
    initial_state: Optional[Dict[str, Any]],
    crash_after: Optional[int],
) -> None:
    """One supervised shard worker: stream checkpoints, send the outcome.

    A seeded crash calls ``os._exit`` mid-simulation — the pipe closes
    without a farewell, exactly like a real worker death.
    """
    try:
        def on_checkpoint(
            seq: int, cut_ts: float, positions: PyTuple[int, int],
            state: Dict[str, Any],
        ) -> None:
            conn.send(("ckpt", seq, cut_ts, positions, state))

        crash_action = None
        if crash_after is not None:
            def crash_action() -> None:
                os._exit(_CRASH_EXIT_CODE)

        outcome = run_checkpointed_shard(
            shard_index, schedule_a, schedule_b, workload,
            config=config, keep_items=keep_items, governor=governor,
            checkpoint_every=checkpoint_every, initial_state=initial_state,
            crash_after=crash_after, crash_action=crash_action,
            on_checkpoint=on_checkpoint,
        )
        conn.send(("done", outcome))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def run_sharded_resilient(
    workload: GeneratedWorkload,
    n_shards: int,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    crash: Optional[CrashSpec] = None,
    max_respawns: int = DEFAULT_MAX_RESPAWNS,
) -> ShardedRunOutcome:
    """The supervised multiprocess backend with crash recovery.

    Routes the workload like :func:`run_sharded_multiprocess`, but each
    worker checkpoints at cover boundaries and the parent supervises:
    a worker whose pipe hits EOF is declared dead, respawned with its
    latest checkpoint, and fed the schedule suffix retained in its
    :class:`~repro.shard.router.InFlightLog`.  A worker that raises is
    not respawned (the same input would raise again): its traceback is
    raised as a :class:`RecoveryError`.  Where ``fork`` is unavailable
    the shards run in-process with the same checkpoint and (simulated)
    crash semantics — identical outcome, no parallelism.
    """
    import multiprocessing
    from multiprocessing.connection import wait as connection_wait

    plan = ShardPlan(workload, n_shards)
    if crash is not None and not (0 <= crash.shard < n_shards):
        raise RecoveryError(
            f"crash shard {crash.shard} out of range for K={n_shards}"
        )
    shard_governors = (
        governor.split(n_shards) if governor is not None else [None] * n_shards
    )
    recovery = {
        "checkpoints_taken": 0,
        "crashes_detected": 0,
        "workers_respawned": 0,
        "events_replayed": 0,
    }

    if not fork_available():  # pragma: no cover - non-POSIX fallback
        outcomes = []
        for shard in range(n_shards):
            crash_after = (
                crash.after_items if crash is not None and crash.shard == shard
                else None
            )
            outcome = run_shard_with_recovery(
                shard, plan.schedules[shard][0], plan.schedules[shard][1],
                workload, config=config, keep_items=keep_items,
                governor=shard_governors[shard],
                checkpoint_every=checkpoint_every, crash_after=crash_after,
            )
            recovery["checkpoints_taken"] += int(
                outcome["counters"].get("checkpoint.checkpoints_saved", 0)
            )
            recovery["crashes_detected"] += int(
                outcome["counters"].get("recovery.crashes_detected", 0)
            )
            recovery["workers_respawned"] += int(
                outcome["counters"].get("recovery.workers_respawned", 0)
            )
            recovery["events_replayed"] += int(
                outcome["counters"].get("recovery.events_replayed", 0)
            )
            outcomes.append(outcome)
        merged = ShardedRunOutcome(plan, outcomes)
        for key, value in recovery.items():
            merged.counters[f"recovery.{key}"] = value
        return merged

    ctx = multiprocessing.get_context("fork")
    logs = {
        shard: InFlightLog(plan.schedules[shard][0], plan.schedules[shard][1])
        for shard in range(n_shards)
    }
    latest: Dict[int, Dict[str, Any]] = {}
    conns: Dict[int, Any] = {}
    procs: Dict[int, Any] = {}
    respawns = {shard: 0 for shard in range(n_shards)}
    # A worker's checkpoint positions are relative to the schedules it
    # was spawned with; the log base at spawn time translates them back
    # into absolute schedule positions.
    spawn_bases = {shard: (0, 0) for shard in range(n_shards)}

    def spawn(
        shard: int,
        schedule_a: Schedule,
        schedule_b: Schedule,
        initial_state: Optional[Dict[str, Any]],
        crash_after: Optional[int],
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_resilient_worker_main,
            args=(child_conn, shard, schedule_a, schedule_b, workload,
                  config, keep_items, shard_governors[shard],
                  checkpoint_every, initial_state, crash_after),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns[shard] = parent_conn
        procs[shard] = proc

    for shard in range(n_shards):
        crash_after = (
            crash.after_items if crash is not None and crash.shard == shard
            else None
        )
        spawn(
            shard, plan.schedules[shard][0], plan.schedules[shard][1],
            None, crash_after,
        )

    outcomes: Dict[int, Dict[str, Any]] = {}
    try:
        while len(outcomes) < n_shards:
            pending = {
                conns[shard]: shard
                for shard in range(n_shards)
                if shard not in outcomes
            }
            for conn in connection_wait(list(pending)):
                shard = pending[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Dead worker: respawn from the latest checkpoint
                    # with the in-flight log's unacknowledged suffix.
                    conn.close()
                    procs[shard].join()
                    recovery["crashes_detected"] += 1
                    if respawns[shard] >= max_respawns:
                        raise RecoveryError(
                            f"shard {shard} worker died "
                            f"{respawns[shard] + 1} times; giving up"
                        )
                    respawns[shard] += 1
                    recovery["workers_respawned"] += 1
                    suffix_a, suffix_b = logs[shard].suffix()
                    recovery["events_replayed"] += len(suffix_a) + len(suffix_b)
                    checkpoint_state = latest.get(shard)
                    spawn_bases[shard] = logs[shard].base
                    spawn(shard, suffix_a, suffix_b, checkpoint_state, None)
                    continue
                kind = message[0]
                if kind == "ckpt":
                    _kind, _seq, _cut_ts, positions, state = message
                    base_a, base_b = spawn_bases[shard]
                    logs[shard].ack(base_a + positions[0], base_b + positions[1])
                    latest[shard] = state
                    recovery["checkpoints_taken"] += 1
                elif kind == "done":
                    outcomes[shard] = message[1]
                elif kind == "error":
                    raise RecoveryError(
                        f"shard {shard} worker raised:\n{message[1]}"
                    )
    finally:
        for conn in conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for proc in procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()

    merged = ShardedRunOutcome(plan, [outcomes[s] for s in range(n_shards)])
    for key, value in recovery.items():
        merged.counters[f"recovery.{key}"] = value
    return merged
