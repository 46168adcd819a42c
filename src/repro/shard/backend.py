"""The sharded runner: one PJoin run as K shared-nothing shard simulations.

:func:`run_sharded` is the one entry point.  It splits one *run* the
way the sweep runner splits many runs:

* **plan** — :class:`ShardPlan` routes the workload's schedules offline
  with the same rules the in-simulator router applies (tuples to their
  owning shard, punctuations narrowed per cover) and records the
  alignment subscriptions in arrival order;
* **run** — each shard replays its slice through a private
  :class:`~repro.sim.engine.SimulationEngine`
  (:func:`~repro.checkpoint.recovery.run_checkpointed_shard`); shards
  share no state, so a shard's virtual trace is identical whether it
  runs in the shared engine or alone, which is what makes this runner
  agree with the in-simulator backend;
* **merge** — :class:`ShardedRunOutcome` re-orders results
  deterministically by ``(virtual time, shard, sequence)`` and replays
  shard punctuation frontiers through an
  :class:`~repro.shard.merger.AlignmentLedger`, yielding the same
  merged output punctuations the in-simulator
  :class:`~repro.shard.merger.AlignedMerger` emits.

The shards run in forked workers under one supervisor
(:class:`ShardWorkerPool`).  Workers inherit their payloads by fork (no
pickling of tuple schedules) and block on a pipe until released, which
lets the benchmark harness start processes outside the timed window.
Checkpoints stream back to the supervisor, which respawns a dead worker
from its latest one.  Hosts without ``fork``, and both phases of a
rescale (:mod:`repro.checkpoint.rescale`), run the shards in turn in
this process — the same outcome, no parallelism.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import traceback
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.checkpoint.recovery import (
    RECOVERY_COUNTERS,
    CrashSpec,
    run_checkpointed_shard,
    run_shard_with_recovery,
)
from repro.checkpoint.rescale import (
    RescalePlan,
    global_cut,
    migrate,
    split_schedules,
)
from repro.core.config import PJoinConfig
from repro.errors import ConfigError, RecoveryError
from repro.memory.budget import GovernorSpec
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.shard.merger import AlignmentLedger
from repro.shard.operator import aggregate_counters
from repro.shard.router import InFlightLog
from repro.shard.routing import narrow_punctuation, shard_cover, shard_of
from repro.tuples.tuple import Tuple
from repro.workloads.generator import GeneratedWorkload, Schedule

# A shard worker that dies more often than this in one run is given up.
MAX_RESPAWNS = 2
_CRASH_EXIT_CODE = 23


class ShardPlan:
    """The offline routing of one workload across K shards."""

    def __init__(
        self,
        workload: GeneratedWorkload,
        n_shards: int,
    ) -> None:
        self.workload = workload
        self.n_shards = n_shards
        self.schedules: List[PyTuple[Schedule, Schedule]] = [
            ([], []) for _ in range(n_shards)
        ]
        # (ts, side, original_join_pattern, cover) in arrival order —
        # replayed into an AlignmentLedger by the merge step.
        self.registrations: List[PyTuple[float, int, Any, Any]] = []
        self._route()

    def _route(self) -> None:
        workload = self.workload
        join_indices = [
            workload.schemas[side].index_of(workload.join_fields[side])
            for side in (0, 1)
        ]
        registrations = []
        for side in (0, 1):
            join_index = join_indices[side]
            join_field = workload.join_fields[side]
            for order, (time, item) in enumerate(workload.schedules[side]):
                if isinstance(item, Tuple):
                    target = shard_of(item.values[join_index], self.n_shards)
                    self.schedules[target][side].append((time, item))
                elif isinstance(item, Punctuation):
                    cover = shard_cover(item.patterns[join_index], self.n_shards)
                    if not cover:
                        continue
                    if is_join_exploitable(item, join_field):
                        registrations.append(
                            (time, side, order, item.patterns[join_index], cover)
                        )
                    for shard, narrowed in cover:
                        self.schedules[shard][side].append(
                            (time, narrow_punctuation(item, join_index, shard, narrowed))
                        )
                else:
                    for shard in range(self.n_shards):
                        self.schedules[shard][side].append((time, item))
        registrations.sort(key=lambda r: (r[0], r[1], r[2]))
        self.registrations = [(t, side, pat, cover)
                              for t, side, _order, pat, cover in registrations]


def _shares(
    governor: Optional[GovernorSpec], n_shards: int
) -> List[Optional[GovernorSpec]]:
    """Each shard's split share of the global *governor* budget."""
    if governor is None:
        return [None] * n_shards
    return list(governor.split(n_shards))


def _crash_after(crash: Optional[CrashSpec], shard: int) -> Optional[int]:
    """*crash*'s delivery count if it kills *shard*'s worker, else None."""
    return crash.after_items if crash is not None and crash.shard == shard else None


class ShardedRunOutcome:
    """The merged view of one sharded run.

    It reads like an :class:`~repro.experiments.harness.ExperimentRun`:
    ``results`` counts the results, ``punctuations_out`` the merged
    output punctuations, and ``duration_ms`` is the finish (the latest
    shard clock).  A rescaled run passes its first phase as *earlier*;
    the outcome then covers both phases, and ``n_shards`` is the
    second phase's.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_outcomes: Sequence[Dict[str, Any]],
        earlier: Optional[ShardedRunOutcome] = None,
    ) -> None:
        self.n_shards = plan.n_shards
        self.shard_outcomes: List[Dict[str, Any]] = []
        # (values, ts) of every kept result, in the deterministic merged
        # order (virtual time, shard, seq).
        self.result_items: List[PyTuple[tuple, float]] = []
        # (original join pattern, ts) of every merged output punctuation.
        self.punctuations: List[PyTuple[Any, float]] = []
        self.punctuations_unaligned = 0
        if earlier is not None:
            self.shard_outcomes += earlier.shard_outcomes
            self.result_items += earlier.result_items
            self.punctuations += earlier.punctuations
            self.punctuations_unaligned = earlier.punctuations_unaligned
        self.shard_outcomes += shard_outcomes
        outcomes = self.shard_outcomes
        self.results = sum(o["result_count"] for o in outcomes)
        self.events = sum(o["events"] for o in outcomes)
        self.duration_ms = max((o["virtual_now"] for o in outcomes), default=0.0)
        self.counters = aggregate_counters([o["counters"] for o in outcomes])
        self.counters["shards"] = self.n_shards
        for outcome in shard_outcomes:
            if outcome["results"] is not None:
                self.result_items.extend(outcome["results"])
        self.result_items.sort(key=lambda r: r[1])
        # This plan's merged output punctuations via ledger replay.
        ledger = AlignmentLedger()
        subscriptions = [
            (side, ledger.register(pattern, cover))
            for _ts, side, pattern, cover in plan.registrations
        ]
        arrivals: List[PyTuple[float, int, int, Any]] = []
        for outcome in shard_outcomes:
            for index, (pattern, ts) in enumerate(outcome["punctuations"]):
                arrivals.append((ts, outcome["shard"], index, pattern))
        arrivals.sort(key=lambda a: (a[0], a[1], a[2]))
        for ts, shard, _index, pattern in arrivals:
            matched, original = ledger.settle(shard, pattern)
            if not matched:
                self.punctuations_unaligned += 1
            elif original is not None:
                self.punctuations.append((original, ts))
        self.punctuations_out = len(self.punctuations)
        # (side, original join pattern) of every promise a covering
        # shard still owes a piece of: a rescale re-delivers them.
        self.unsettled = [
            (side, sub.original)
            for side, sub in subscriptions
            if sub is not None and sub.remaining
        ]

    def result_multiset(self) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for values, _ts in self.result_items:
            counts[values] = counts.get(values, 0) + 1
        return counts

    def punctuation_multiset(self) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for pattern, _ts in self.punctuations:
            counts[pattern] = counts.get(pattern, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# Worker processes (fork + pipe; workers idle until released)
# ---------------------------------------------------------------------------


def _die() -> None:
    """A worker's seeded crash: exit at once, without a farewell."""
    os._exit(_CRASH_EXIT_CODE)


def _worker_main(conn: Connection, run_shard: Callable[..., Dict[str, Any]]) -> None:
    """Run the inherited shard once per ``"go"``, streaming its checkpoints.

    A run ends with ``("done", outcome)``, or ``("error", traceback)``
    when it raises.  A seeded crash closes the pipe without a message,
    exactly like a real worker death.
    """

    def on_checkpoint(positions: PyTuple[int, int], state: Dict[str, Any]) -> None:
        conn.send(("ckpt", positions, state))

    try:
        while conn.recv() == "go":
            try:
                outcome = run_shard(on_checkpoint=on_checkpoint)
            except Exception:
                conn.send(("error", traceback.format_exc()))
                return
            conn.send(("done", outcome))
    finally:
        conn.close()


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# Where a worker starts: its schedule positions and the checkpoint state
# it resumes (``None`` for a cold start).
_Start = PyTuple[PyTuple[int, int], Optional[Dict[str, Any]]]


class ShardWorkerPool:
    """K forked shard workers under one supervisor.

    Each worker is forked with its shard's slice and parks on a pipe
    until :meth:`run` releases it.  Forking happens here, so a pool
    built outside a timed window (:func:`warm_pool`) leaves a wall clock
    around :meth:`run` timing only simulation work plus the small
    outcome pickles.  A pool runs as often as :meth:`run` is called.
    """

    def __init__(
        self,
        plan: ShardPlan,
        config: Optional[PJoinConfig] = None,
        keep_items: bool = False,
        governor: Optional[GovernorSpec] = None,
        checkpoint_every: Optional[int] = None,
        crash: Optional[CrashSpec] = None,
    ) -> None:
        self.plan = plan
        self._run_shard = functools.partial(
            run_checkpointed_shard,
            workload=plan.workload,
            config=config,
            keep_items=keep_items,
            checkpoint_every=checkpoint_every,
        )
        self._governors = _shares(governor, plan.n_shards)
        self._ctx = multiprocessing.get_context("fork")
        self._conns: Dict[int, Connection] = {}
        self._procs: Dict[int, BaseProcess] = {}
        self._starts: Dict[int, _Start] = {}
        for shard in range(plan.n_shards):
            self._spawn(shard, ((0, 0), None), _crash_after(crash, shard))

    def _spawn(
        self, shard: int, start: _Start, crash_after: Optional[int] = None
    ) -> None:
        """Fork *shard*'s worker over its schedules from *start* on."""
        (done_a, done_b), state = start
        schedule_a, schedule_b = self.plan.schedules[shard]
        run_shard = functools.partial(
            self._run_shard,
            shard,
            schedule_a[done_a:],
            schedule_b[done_b:],
            governor=self._governors[shard],
            initial_state=state,
            crash_after=crash_after,
            crash_action=_die,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, run_shard), daemon=True
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc
        self._starts[shard] = start

    def run(self) -> ShardedRunOutcome:
        """Release every worker and supervise the run to its merged outcome.

        Each checkpoint a worker reports acknowledges its shard's
        :class:`~repro.shard.router.InFlightLog` up to the cut.  A pipe
        that closes without a message is a dead worker: it is respawned
        from its latest checkpoint with the log's unacknowledged suffix,
        at most :data:`MAX_RESPAWNS` times a run.  A worker that raises
        is not respawned (the same input would raise again): its
        traceback is raised as a :class:`RecoveryError`.  Each shard's
        outcome carries its ``recovery.*`` counters.
        """
        n_shards = self.plan.n_shards
        logs: Dict[int, InFlightLog] = {}
        latest: Dict[int, Optional[Dict[str, Any]]] = {}
        recovery = {
            shard: dict.fromkeys(RECOVERY_COUNTERS, 0) for shard in range(n_shards)
        }
        for shard in range(n_shards):
            base, latest[shard] = self._starts[shard]
            logs[shard] = InFlightLog(*self.plan.schedules[shard])
            logs[shard].ack(*base)
            self._conns[shard].send("go")
        outcomes: Dict[int, Dict[str, Any]] = {}
        while len(outcomes) < n_shards:
            pending: Dict[Any, int] = {
                self._conns[shard]: shard
                for shard in range(n_shards)
                if shard not in outcomes
            }
            for ready in wait(list(pending)):
                shard = pending[ready]
                counts = recovery[shard]
                try:
                    message = self._conns[shard].recv()
                except (EOFError, OSError):
                    self._respawn(shard, logs[shard], latest[shard], counts)
                    continue
                if message[0] == "ckpt":
                    _kind, (done_a, done_b), latest[shard] = message
                    (base_a, base_b), _state = self._starts[shard]
                    logs[shard].ack(base_a + done_a, base_b + done_b)
                    counts["checkpoints_taken"] += 1
                elif message[0] == "done":
                    outcome = message[1]
                    for key, value in counts.items():
                        outcome["counters"][f"recovery.{key}"] = value
                    outcomes[shard] = outcome
                else:
                    raise RecoveryError(
                        f"shard {shard} worker raised:\n{message[1]}"
                    )
        return ShardedRunOutcome(
            self.plan, [outcomes[shard] for shard in range(n_shards)]
        )

    def _respawn(
        self,
        shard: int,
        log: InFlightLog,
        state: Optional[Dict[str, Any]],
        counts: Dict[str, int],
    ) -> None:
        """Replace *shard*'s dead worker: resume *state*, replay *log*'s suffix."""
        self._conns[shard].close()
        self._procs[shard].join()
        counts["crashes_detected"] += 1
        if counts["workers_respawned"] >= MAX_RESPAWNS:
            raise RecoveryError(
                f"shard {shard} worker died {counts['crashes_detected']} "
                "times; giving up"
            )
        counts["workers_respawned"] += 1
        counts["events_replayed"] += log.retained
        self._spawn(shard, (log.base, state))
        self._conns[shard].send("go")

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.send("stop")
            except OSError:  # the worker has exited already
                pass
            conn.close()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._conns = {}
        self._procs = {}


# One cached pool per benchmark configuration, closed at exit, so
# ``repeat`` runs reuse warm workers and the spawn cost stays untimed.
_POOL_CACHE: Dict[Any, ShardWorkerPool] = {}


def warm_pool(
    key: Any,
    plan: ShardPlan,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = False,
    governor: Optional[GovernorSpec] = None,
) -> ShardWorkerPool:
    """Get (or fork) the cached worker pool for *key*."""
    pool = _POOL_CACHE.get(key)
    if pool is None:
        pool = ShardWorkerPool(
            plan, config=config, keep_items=keep_items, governor=governor
        )
        _POOL_CACHE[key] = pool
    return pool


@atexit.register
def _close_pools() -> None:  # pragma: no cover - exit hook
    for pool in _POOL_CACHE.values():
        pool.close()
    _POOL_CACHE.clear()


# ---------------------------------------------------------------------------
# The in-process loop and the entry point
# ---------------------------------------------------------------------------


def _run_in_process(
    plan: ShardPlan,
    config: Optional[PJoinConfig],
    governor: Optional[GovernorSpec],
    keep_items: bool,
    checkpoint_every: Optional[int],
    crash: Optional[CrashSpec] = None,
    initial_states: Optional[Sequence[Dict[str, Any]]] = None,
    final_snapshot: bool = False,
) -> List[Dict[str, Any]]:
    """Run *plan*'s shards in turn in this process; return their outcomes."""
    outcomes = []
    for shard, share in enumerate(_shares(governor, plan.n_shards)):
        schedule_a, schedule_b = plan.schedules[shard]
        outcomes.append(
            run_shard_with_recovery(
                shard,
                schedule_a,
                schedule_b,
                plan.workload,
                config=config,
                keep_items=keep_items,
                governor=share,
                checkpoint_every=checkpoint_every,
                initial_state=initial_states[shard] if initial_states else None,
                crash_after=_crash_after(crash, shard),
                final_snapshot=final_snapshot,
            )
        )
    return outcomes


def _run_rescaled(
    workload: GeneratedWorkload,
    n_shards: int,
    rescale: RescalePlan,
    config: Optional[PJoinConfig],
    governor: Optional[GovernorSpec],
    keep_items: bool,
    checkpoint_every: Optional[int],
) -> ShardedRunOutcome:
    """Both phases of a rescaled run, in this process.

    The first phase runs the prefix up to the cut on *n_shards* shards
    and keeps their final state; the second runs the migrated state and
    the suffix on ``rescale.n_after`` shards (see
    :mod:`repro.checkpoint.rescale`).  Both phases keep their items,
    because their output punctuations drive the ledger replay.
    """
    cut_ts = global_cut(workload, rescale.at_ts)
    prefix, suffix = split_schedules(workload, cut_ts)
    plan = ShardPlan(GeneratedWorkload(workload.spec, *prefix), n_shards)
    first = ShardedRunOutcome(
        plan,
        _run_in_process(
            plan, config, governor, True, checkpoint_every, final_snapshot=True
        ),
    )
    suffix_workload, initial_states, counters = migrate(
        workload, rescale, cut_ts, suffix, first, config
    )
    plan = ShardPlan(suffix_workload, rescale.n_after)
    outcome = ShardedRunOutcome(
        plan,
        _run_in_process(
            plan, config, governor, True, checkpoint_every,
            initial_states=initial_states,
        ),
        earlier=first,
    )
    for key, value in counters.items():
        outcome.counters[f"rescale.{key}"] = value
    if not keep_items:
        outcome.result_items = []
    return outcome


def run_sharded(
    workload: GeneratedWorkload,
    n_shards: int,
    *,
    config: Optional[PJoinConfig] = None,
    governor: Optional[GovernorSpec] = None,
    keep_items: bool = True,
    checkpoint_every: Optional[int] = None,
    crash: Optional[CrashSpec] = None,
    rescale: Optional[RescalePlan] = None,
) -> ShardedRunOutcome:
    """Run one PJoin over *workload* as *n_shards* shared-nothing shards.

    *governor* is the **global** budget: each shard receives its split
    share, so the per-shard budgets sum to the global one.
    *checkpoint_every* checkpoints every shard at every Nth cover
    boundary; *crash* kills one shard's worker mid-run, and the shard
    recovers from its latest checkpoint (from the start without one);
    *rescale* moves the run to ``rescale.n_after`` shards at a cover
    boundary.  Every refusal is raised before any worker starts.
    """
    if n_shards < 1:
        raise ConfigError(f"need at least one shard, got {n_shards}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise RecoveryError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if crash is not None and rescale is not None:
        raise ConfigError("a run cannot both crash and rescale")
    if crash is not None and not 0 <= crash.shard < n_shards:
        raise RecoveryError(
            f"crash shard {crash.shard} out of range for K={n_shards}"
        )
    if rescale is not None:
        return _run_rescaled(
            workload, n_shards, rescale, config, governor, keep_items,
            checkpoint_every,
        )
    plan = ShardPlan(workload, n_shards)
    if not fork_available():
        return ShardedRunOutcome(
            plan,
            _run_in_process(
                plan, config, governor, keep_items, checkpoint_every, crash
            ),
        )
    pool = ShardWorkerPool(
        plan,
        config=config,
        keep_items=keep_items,
        governor=governor,
        checkpoint_every=checkpoint_every,
        crash=crash,
    )
    try:
        return pool.run()
    finally:
        pool.close()
