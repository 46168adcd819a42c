"""Deterministic chaos scenarios: every fault kind, one seeded run.

A :class:`ChaosScenario` composes the fault injectors of
:mod:`repro.workloads.faults` (contract violations, disorder,
duplicates, stalls) with the runtime fault machinery of this package
(disorder buffers, transient disk faults, the stall watchdog) into one
reproducible experiment: same scenario + same seed ⇒ the same virtual
timeline and the exact same counters, every time.  :func:`run_chaos`
executes a scenario under a chosen fault policy and returns a run whose
manifest carries a ``resilience`` section summarising what was injected
and how the stack absorbed it — the ``repro chaos`` CLI command prints
that summary, and ``repro check`` diffs it against checked-in goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import ResilienceError
from repro.obs.manifest import build_manifest
from repro.operators.sink import Sink
from repro.query.plan import QueryPlan
from repro.resilience.policy import QUARANTINE, normalize_policy
from repro.resilience.retry import DiskFaultProfile
from repro.resilience.watchdog import ON_STALL_HEARTBEAT, StallWatchdog
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.workloads.faults import (
    inject_duplicates,
    inject_out_of_order,
    inject_punctuation_violation,
    inject_stall,
)
from repro.workloads.generator import generate_workload


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully-seeded composition of fault kinds.

    Every knob defaults to "off", so a scenario only lists the faults it
    actually injects.  All randomness derives from the scenario seed
    (offset per injector), making two runs of the same scenario
    counter-identical.
    """

    name: str
    description: str
    # -- workload ------------------------------------------------------
    tuples_per_stream: int = 300
    punct_spacing: float = 10.0
    seed: int = 7
    # -- contract violations ------------------------------------------
    violations_a: int = 0
    violations_b: int = 0
    # -- delivery disorder --------------------------------------------
    disorder_displacement_ms: float = 0.0
    disorder_fraction: float = 0.0
    disorder_slack_ms: Optional[float] = None
    # -- duplicate deliveries -----------------------------------------
    duplicate_fraction: float = 0.0
    # -- transient disk faults ----------------------------------------
    disk_failure_rate: float = 0.0
    disk_outage_ms: float = 2.0
    memory_threshold: Optional[int] = None
    # -- source stall --------------------------------------------------
    stall_at_fraction: Optional[float] = None
    stall_gap_ms: float = 1000.0
    watchdog_timeout_ms: Optional[float] = None
    watchdog_mode: str = ON_STALL_HEARTBEAT
    # -- worker crash + checkpoint recovery ----------------------------
    # n_shards > 0 switches the scenario to the supervised sharded
    # backend: the workload runs unsharded (the reference) and as a
    # K-shard checkpointed stack whose crash_shard worker dies before
    # its crash_after_items-th delivery; the summary records whether
    # recovery reproduced the reference result multiset exactly.
    n_shards: int = 0
    crash_shard: int = 0
    crash_after_items: int = 0
    checkpoint_every: int = 4


CHAOS_SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="gentle",
            description="A few contract violations on an otherwise "
            "clean workload — the minimal policy exercise.",
            violations_a=2,
            violations_b=1,
        ),
        ChaosScenario(
            name="disorder",
            description="Out-of-order and duplicate deliveries; the "
            "source-side disorder buffer (slack ≥ displacement) "
            "re-sequences arrivals before the join sees them.",
            violations_a=1,
            violations_b=1,
            disorder_displacement_ms=15.0,
            disorder_fraction=0.3,
            disorder_slack_ms=20.0,
            duplicate_fraction=0.05,
        ),
        ChaosScenario(
            name="disk_storm",
            description="A tight memory threshold forces spills while "
            "the simulated disk throws seeded transient faults; retries "
            "with exponential backoff ride out every outage.",
            violations_a=1,
            memory_threshold=60,
            disk_failure_rate=0.2,
            disk_outage_ms=1.0,
        ),
        ChaosScenario(
            name="crash",
            description="A shard worker dies mid-run (seeded); the "
            "supervisor restores its punctuation-aligned checkpoint, "
            "replays the in-flight suffix and the recovered run "
            "reproduces the unsharded result multiset exactly.",
            tuples_per_stream=240,
            n_shards=2,
            crash_shard=0,
            crash_after_items=60,
            checkpoint_every=4,
        ),
        ChaosScenario(
            name="stall",
            description="Stream A freezes mid-run; the watchdog detects "
            "the silence and synthesises a heartbeat punctuation, so "
            "post-resume arrivals exercise the fault policy.",
            stall_at_fraction=0.5,
            stall_gap_ms=2000.0,
            watchdog_timeout_ms=500.0,
        ),
    )
}


class ChaosRun:
    """One finished chaos run and everything it measured."""

    def __init__(
        self,
        scenario: ChaosScenario,
        policy: str,
        seed: int,
        join: PJoin,
        sink: Sink,
        plan: QueryPlan,
        watchdog: Optional[StallWatchdog],
        injected: Dict[str, int],
        manifest: Dict[str, Any],
    ) -> None:
        self.scenario = scenario
        self.policy = policy
        self.seed = seed
        self.join = join
        self.sink = sink
        self.plan = plan
        self.watchdog = watchdog
        self.injected = injected
        self.manifest = manifest

    @property
    def summary(self) -> Dict[str, Any]:
        """The golden-checkable counter summary (integer counters only)."""
        return self.manifest["resilience"]["summary"]

    def __repr__(self) -> str:
        return (
            f"ChaosRun({self.scenario.name!r}, policy={self.policy}, "
            f"results={self.sink.tuple_count})"
        )


def _corrupt_schedules(scenario: ChaosScenario, workload: Any, seed: int):
    """Apply the scenario's schedule-level injectors; count what went in."""
    schedules = [list(workload.schedule_a), list(workload.schedule_b)]
    injected = {
        "violations": 0,
        "duplicates": 0,
        "stalls": 0,
    }
    for side, count in ((0, scenario.violations_a), (1, scenario.violations_b)):
        for i in range(count):
            schedules[side], _value, _position = inject_punctuation_violation(
                schedules[side],
                workload.schemas[side],
                seed=seed + 101 + 31 * side + i,
            )
            injected["violations"] += 1
    if scenario.duplicate_fraction > 0:
        for side in (0, 1):
            before = len(schedules[side])
            schedules[side] = inject_duplicates(
                schedules[side],
                fraction=scenario.duplicate_fraction,
                seed=seed + 211 + side,
            )
            injected["duplicates"] += len(schedules[side]) - before
    if scenario.disorder_fraction > 0:
        for side in (0, 1):
            schedules[side] = inject_out_of_order(
                schedules[side],
                displacement_ms=scenario.disorder_displacement_ms,
                fraction=scenario.disorder_fraction,
                seed=seed + 307 + side,
            )
    if scenario.stall_at_fraction is not None:
        schedules[0] = inject_stall(
            schedules[0],
            at_fraction=scenario.stall_at_fraction,
            gap_ms=scenario.stall_gap_ms,
        )
        injected["stalls"] += 1
    return schedules, injected


def _run_chaos_crash(
    scenario: ChaosScenario,
    policy: str,
    seed: int,
    cost_model: Optional[CostModel],
) -> ChaosRun:
    """The worker-crash scenario: reference run vs supervised recovery.

    The same clean workload runs twice: once unsharded (the reference)
    and once on the supervised multiprocess backend with a seeded
    worker crash mid-run.  Eager purge plus push-count propagation make
    both the result multiset and the merged punctuation multiset exact,
    so the golden pins ``results_match``/``punctuations_match`` at 1 —
    any recovery bug shows up as a multiset mismatch, not just a count
    drift.  The summary carries only scenario knobs and integer
    recovery counters (never checkpoint byte sizes, which depend on
    the pickle encoding of the running interpreter).
    """
    from repro.checkpoint.recovery import CrashSpec
    from repro.shard.backend import run_sharded

    workload = generate_workload(
        n_tuples_per_stream=scenario.tuples_per_stream,
        punct_spacing_a=scenario.punct_spacing,
        punct_spacing_b=scenario.punct_spacing,
        seed=seed,
    )
    config = PJoinConfig(
        fault_policy=policy,
        purge_threshold=1,
        propagation_mode="push_count",
    )

    plan = QueryPlan(cost_model=cost_model)
    join = PJoin(
        plan.engine,
        plan.cost_model,
        workload.schemas[0],
        workload.schemas[1],
        workload.join_fields[0],
        workload.join_fields[1],
        config=config,
        name="pjoin",
    )
    sink = Sink(plan.engine, plan.cost_model)
    join.connect(sink)
    plan.add_source(workload.schedule_a, join, port=0, name="A")
    plan.add_source(workload.schedule_b, join, port=1, name="B")
    plan.run()

    outcome = run_sharded(
        workload,
        scenario.n_shards,
        config=config,
        keep_items=True,
        checkpoint_every=scenario.checkpoint_every,
        crash=CrashSpec(scenario.crash_shard, scenario.crash_after_items),
    )

    label = f"chaos:{scenario.name}:{policy}"
    manifest = build_manifest(
        label, join, sink, plan.engine, workload=workload,
        duration_ms=plan.engine.now,
    )
    recovery = outcome.counters
    summary: Dict[str, Any] = {
        "scenario": scenario.name,
        "policy": policy,
        "seed": seed,
        "n_shards": scenario.n_shards,
        "crash_shard": scenario.crash_shard,
        "crash_after_items": scenario.crash_after_items,
        "checkpoint_every": scenario.checkpoint_every,
        "reference_results": sink.tuple_count,
        "results_produced": outcome.results,
        "results_match": int(outcome.result_multiset() == sink.result_multiset()),
        "punctuations_match": int(
            outcome.punctuation_multiset() == sink.punctuation_multiset()
        ),
        "checkpoints_taken": int(recovery.get("recovery.checkpoints_taken", 0)),
        "crashes_detected": int(recovery.get("recovery.crashes_detected", 0)),
        "workers_respawned": int(recovery.get("recovery.workers_respawned", 0)),
        "events_replayed": int(recovery.get("recovery.events_replayed", 0)),
    }
    manifest["resilience"] = {
        "summary": summary,
        "watchdog": {},
        "sources": {s.name: s.counters() for s in plan.sources},
    }
    injected = {"violations": 0, "duplicates": 0, "stalls": 0}
    return ChaosRun(
        scenario, policy, seed, join, sink, plan, None, injected, manifest
    )


def run_chaos(
    scenario: Any,
    policy: str = QUARANTINE,
    seed: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
) -> ChaosRun:
    """Execute one chaos scenario under one fault policy.

    *scenario* is a :class:`ChaosScenario` or the name of a preset in
    :data:`CHAOS_SCENARIOS`.  Under ``strict`` a scenario that injects
    contract violations (or stalls a heartbeat-watched source) raises
    :class:`~repro.errors.ContractViolationError` — that is the point
    of strict; use ``quarantine`` or ``repair`` for runs that must
    complete.
    """
    if isinstance(scenario, str):
        try:
            scenario = CHAOS_SCENARIOS[scenario]
        except KeyError:
            raise ResilienceError(
                f"unknown chaos scenario {scenario!r}; presets: "
                f"{sorted(CHAOS_SCENARIOS)}"
            ) from None
    policy = normalize_policy(policy)
    if seed is None:
        seed = scenario.seed
    if scenario.n_shards > 0:
        return _run_chaos_crash(scenario, policy, seed, cost_model)
    workload = generate_workload(
        n_tuples_per_stream=scenario.tuples_per_stream,
        punct_spacing_a=scenario.punct_spacing,
        punct_spacing_b=scenario.punct_spacing,
        seed=seed,
    )
    schedules, injected = _corrupt_schedules(scenario, workload, seed)

    plan = QueryPlan(cost_model=cost_model)
    fault_profile = None
    if scenario.disk_failure_rate > 0:
        fault_profile = DiskFaultProfile(
            failure_rate=scenario.disk_failure_rate,
            outage_ms=scenario.disk_outage_ms,
            seed=seed + 997,
        )
    disk = SimulatedDisk(plan.cost_model, fault_profile=fault_profile)
    config = PJoinConfig(
        fault_policy=policy,
        memory_threshold=scenario.memory_threshold,
    )
    join = PJoin(
        plan.engine,
        plan.cost_model,
        workload.schemas[0],
        workload.schemas[1],
        workload.join_fields[0],
        workload.join_fields[1],
        config=config,
        disk=disk,
        name="pjoin",
    )
    sink = Sink(plan.engine, plan.cost_model)
    join.connect(sink)
    plan.add_source(
        schedules[0], join, port=0, name="A",
        disorder_slack_ms=scenario.disorder_slack_ms,
    )
    plan.add_source(
        schedules[1], join, port=1, name="B",
        disorder_slack_ms=scenario.disorder_slack_ms,
    )
    watchdog = None
    if scenario.watchdog_timeout_ms is not None:
        watchdog = StallWatchdog(
            plan.engine,
            timeout_ms=scenario.watchdog_timeout_ms,
            on_stall=scenario.watchdog_mode,
        )
        watchdog.watch_plan_sources(plan, workload.schemas)
        watchdog.start()
    plan.run()

    label = f"chaos:{scenario.name}:{policy}"
    manifest = build_manifest(
        label, join, sink, plan.engine, workload=workload,
        duration_ms=plan.engine.now,
    )
    summary: Dict[str, Any] = {
        "scenario": scenario.name,
        "policy": policy,
        "seed": seed,
        "faults_injected_schedule": injected["violations"]
        + injected["duplicates"]
        + injected["stalls"],
        "violations_injected": injected["violations"],
        "duplicates_injected": injected["duplicates"],
        "stalls_injected": injected["stalls"],
        "violations_seen": join.validator.violations,
        "tuples_quarantined": join.validator.quarantined,
        "punctuations_retracted": join.validator.punctuations_retracted,
        "dead_letters": len(join.dead_letters) if join.dead_letters else 0,
        "disk_faults_injected": (
            disk.fault_injector.faults_injected if disk.fault_injector else 0
        ),
        "disk_retries": (
            disk.fault_injector.retries if disk.fault_injector else 0
        ),
        "stalls_detected": watchdog.stalls_detected if watchdog else 0,
        "heartbeats_emitted": watchdog.heartbeats_emitted if watchdog else 0,
        "degraded": int(watchdog.degraded) if watchdog else 0,
        "items_delivered": sum(s.items_sent for s in plan.sources),
        "tuples_reordered": sum(
            s.disorder_buffer.reordered
            for s in plan.sources
            if s.disorder_buffer is not None
        ),
        "late_releases": sum(
            s.disorder_buffer.late_releases
            for s in plan.sources
            if s.disorder_buffer is not None
        ),
        "results_produced": sink.tuple_count,
    }
    manifest["resilience"] = {
        "summary": summary,
        "watchdog": watchdog.counters() if watchdog else {},
        "sources": {s.name: s.counters() for s in plan.sources},
    }
    return ChaosRun(
        scenario, policy, seed, join, sink, plan, watchdog, injected, manifest
    )
