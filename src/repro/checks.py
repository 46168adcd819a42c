"""Pinned correctness checks, each diffed against a committed golden.

``CHECKS`` maps a name to a function that runs one pinned
configuration and returns ``(summary, failures)``: a JSON summary of
its deterministic outcomes and the conditions that failed.  Most
conditions are the paper's correctness claim (§3.4) for one layer:
the first variant of a join emits exactly the reference oracle's
result multiset, and every other variant exactly the first's output
(:func:`run_variants`).  ``repro check`` diffs each summary
against ``<goldens>/<name>.json`` (:func:`golden_drift`), values and
bytes.  To regenerate a golden after an intended change, from the repo
root::

    PYTHONPATH=src python -c 'import sys; from repro.checks import CHECKS, render; n = sys.argv[1]; open(f"tests/goldens/{n}.json", "w").write(render(CHECKS[n]()[0]))' shard_smoke
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.checkpoint.recovery import CrashSpec
from repro.checkpoint.rescale import RescalePlan
from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    ExperimentRun,
    JoinFactory,
    RunOptions,
    pjoin_factory,
    run_join_experiment,
    run_nary_experiment,
    run_options,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.planner import PlannerSpec, get_preset
from repro.profiling.presets import resolve_preset
from repro.profiling.runner import check_profile, run_profile
from repro.resilience.chaos import CHAOS_SCENARIOS, run_chaos
from repro.shard.backend import run_sharded
from repro.sim.costs import CostModel
from repro.skew import SkewSpec
from repro.workloads.generator import GeneratedWorkload, generate_workload
from repro.workloads.nary import generate_nary_workload
from repro.workloads.reference import (
    reference_join_multiset,
    reference_nway_join_multiset,
)

Summary = Dict[str, Any]
CheckResult = Tuple[Summary, List[str]]


def render(summary: Summary) -> str:
    """The bytes of a golden that holds *summary*."""
    return json.dumps(summary, indent=1) + "\n"


def golden_drift(name: str, summary: Summary, goldens: Path) -> List[str]:
    """How *summary* differs from ``goldens/<name>.json``, one line a key.

    A golden that holds every value but not as :func:`render` writes
    them is reported too, so that regenerating every golden changes no
    byte of a passing one.
    """
    path = goldens / f"{name}.json"
    if not path.exists():
        return [f"missing golden: {path}"]
    text = path.read_text()
    golden = json.loads(text)
    drift = [
        f"drift in {name}.{key}: golden={golden.get(key)!r} "
        f"run={summary.get(key)!r}"
        for key in sorted(set(golden) | set(summary))
        if golden.get(key) != summary.get(key)
    ]
    if not drift and text != render(summary):
        drift.append(f"{path} is not as the checks render it; regenerate it")
    return drift


def run_variants(
    variants: Dict[str, Callable[[], Any]],
    reference: Mapping[Any, int],
    keep: Callable[[Any], Any],
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the variants in turn; return ``keep(run)`` of each, and failures.

    A variant returns an :class:`ExperimentRun` or a sharded run's
    merged outcome.  Its output is its result multiset and its output
    punctuation multiset.  The first variant's results must equal
    *reference*, the oracle's multiset; every other variant's output
    must equal the first's.  A run is dropped as soon as its output and
    ``keep(run)`` are taken, so at most one is held.
    """
    kept: Dict[str, Any] = {}
    failures: List[str] = []
    first: Optional[Tuple[str, Any]] = None
    for label, variant in variants.items():
        run = variant()
        output = (run.result_multiset(), run.punctuation_multiset())
        kept[label] = keep(run)
        del run
        if first is None:
            first = (label, output)
            if output[0] != reference:
                failures.append(f"{label}: results differ from the oracle's")
        elif output != first[1]:
            failures.append(f"{label}: output differs from the {first[0]} run's")
    return kept, failures


def _oracle(workload: GeneratedWorkload) -> Mapping[Any, int]:
    """The full equi-join's result multiset of a binary *workload*."""
    return reference_join_multiset(
        workload.schedule_a, workload.schedule_b,
        workload.schemas[0], workload.schemas[1],
        workload.join_fields[0], workload.join_fields[1],
    )


def _join(
    factory: JoinFactory, workload: Any, options: RunOptions = RunOptions()
) -> Callable[[], ExperimentRun]:
    """A variant that runs *factory* over *workload* under *options*."""

    def run() -> ExperimentRun:
        with run_options(options):
            return run_join_experiment(factory, workload, keep_items=True)

    return run


def _row(run: Any) -> Tuple[int, int, float]:
    """Results, output punctuations and finish time of one run."""
    return run.results, run.punctuations_out, run.duration_ms


def _rows(rows: Dict[str, Tuple[int, int, float]]) -> Summary:
    """Every run's :func:`_row`, one summary key per field."""
    summary: Summary = {}
    for label, (results, puncts, finish_ms) in rows.items():
        summary[f"{label}.results"] = results
        summary[f"{label}.puncts"] = puncts
        summary[f"{label}.finish_ms"] = round(finish_ms)
    return summary


def memory_smoke() -> CheckResult:
    """PJoin-1 and XJoin ungoverned, at an unlimited and a 100-tuple budget.

    The unlimited budget must not move the finish time; the tight one
    must spill.
    """
    workload = generate_workload(
        n_tuples_per_stream=2000, punct_spacing_a=40.0, punct_spacing_b=40.0,
        seed=5,
    )
    oracle = _oracle(workload)
    summary: Summary = {}
    failures: List[str] = []
    for algo, factory in (
        ("PJoin-1", pjoin_factory(PJoinConfig(purge_threshold=1))),
        ("XJoin", xjoin_factory()),
    ):
        rows, failed = run_variants(
            {
                f"{algo} b={tag}": _join(
                    factory, workload, RunOptions(governor=spec)
                )
                for tag, spec in (
                    ("none", None),
                    ("inf", GovernorSpec(math.inf)),
                    ("100", GovernorSpec(100.0)),
                )
            },
            oracle,
            lambda run: (
                run.results,
                run.join.counters().get("governor.spills", 0),
                run.duration_ms,
            ),
        )
        failures += failed
        for label, (results, spills, finish_ms) in rows.items():
            summary[f"{label}.results"] = results
            summary[f"{label}.spills"] = spills
            summary[f"{label}.finish_ms"] = round(finish_ms)
        (_, _, ungoverned_ms), (_, _, unlimited_ms), (_, tight_spills, _) = (
            rows.values()
        )
        if unlimited_ms != ungoverned_ms:
            failures.append(f"{algo}: the unlimited budget moved the finish")
        if not tight_spills:
            failures.append(f"{algo}: the tight budget never spilled")
    return summary, failures


def _skew_outcome(run: ExperimentRun) -> Tuple[int, Summary, Summary]:
    """Results, join counters and hot-key router counters of one run."""
    router = getattr(run.join, "router", None)
    return (
        run.results,
        run.join.counters(),
        router.counters() if router is not None else {},
    )


def skew_smoke() -> CheckResult:
    """One Zipf workload static, adaptive, sharded and sharded hot-key."""
    workload = generate_workload(
        n_tuples_per_stream=3000, punct_spacing_a=40.0, punct_spacing_b=40.0,
        active_values=48, zipf_exponent=1.4, seed=7,
    )
    factory = pjoin_factory(PJoinConfig(n_partitions=8, purge_threshold=1))
    kept, failures = run_variants(
        {
            label: _join(factory, workload, options)
            for label, options in (
                ("static", RunOptions()),
                ("adaptive", RunOptions(skew=SkewSpec())),
                ("sharded static", RunOptions(shards=4)),
                ("sharded hot-key", RunOptions(
                    shards=4, skew=SkewSpec(hot_keys=True, adaptive=False)
                )),
            )
        },
        _oracle(workload),
        _skew_outcome,
    )
    adaptive = kept["adaptive"][1]
    hot_key, router = kept["sharded hot-key"][1:]
    if not adaptive.get("skew.splits"):
        failures.append("adaptive: no bucket ever split")
    if not router.get("hot_activations"):
        failures.append("sharded hot-key: no key ever activated")
    if not router.get("replica_copies"):
        failures.append("sharded hot-key: no build history was replicated")
    summary: Summary = {"results": kept["static"][0]}
    for key in ("splits", "coalesces", "entries_moved", "leaf_partitions"):
        summary[f"adaptive.{key}"] = adaptive[f"skew.{key}"]
    for key in ("hot_activations", "hot_deactivations", "replica_copies",
                "hot_spread_tuples", "hot_broadcast_tuples",
                "hot_broadcast_punctuations"):
        summary[f"hotkey.{key}"] = router[key]
    summary["hotkey.replica_inserts"] = hot_key.get("replica_inserts", 0)
    return summary, failures


# Eager purge with propagation is the sharded exact-equivalence regime:
# lazy purge batches land on different boundaries per shard, and so
# would the output punctuations.
_SHARD_CONFIG = PJoinConfig(purge_threshold=1, propagation_mode="push_count")


def _sharded(
    tuples: int, shard_counts: Tuple[int, ...]
) -> Tuple[Dict[str, Callable[[], Any]], GeneratedWorkload]:
    """The unsharded and in-simulator K-shard variants, and their workload."""
    workload = generate_workload(
        n_tuples_per_stream=tuples, punct_spacing_a=40.0,
        punct_spacing_b=40.0, seed=42,
    )
    factory = pjoin_factory(_SHARD_CONFIG)
    variants: Dict[str, Callable[[], Any]] = {
        "unsharded": _join(factory, workload),
    }
    for k in shard_counts:
        variants[f"K={k} sim"] = _join(factory, workload, RunOptions(shards=k))
    return variants, workload


def shard_smoke() -> CheckResult:
    """K = 1, 2 and 4 shards on the in-simulator and multiprocess backends."""
    variants, workload = _sharded(2000, (1, 2, 4))
    for k in (1, 2, 4):
        variants[f"K={k} mp"] = functools.partial(
            run_sharded, workload, k, config=_SHARD_CONFIG
        )
    rows, failures = run_variants(variants, _oracle(workload), _row)
    return _rows(rows), failures


def recovery_smoke() -> CheckResult:
    """A supervised worker crash at K = 1 and 2, and a live 2 -> 3 rescale.

    Shard 0's worker dies before its 80th delivery and recovers from
    its latest checkpoint (one every 4 cover boundaries); the rescale
    cuts at the first cover boundary after half the workload.
    """
    variants, workload = _sharded(1200, (1, 2))
    for k in (1, 2):
        variants[f"K={k} mp+crash"] = functools.partial(
            run_sharded, workload, k, config=_SHARD_CONFIG,
            checkpoint_every=4, crash=CrashSpec(0, 80),
        )
    variants["K=2->3 rescale"] = functools.partial(
        run_sharded, workload, 2, config=_SHARD_CONFIG, checkpoint_every=4,
        rescale=RescalePlan(3, workload.end_time / 2),
    )
    rows, failures = run_variants(variants, _oracle(workload), _row)
    return _rows(rows), failures


def _plan_outcome(run: ExperimentRun) -> Tuple[int, float, Summary]:
    """Results, finish time and re-optimizer counters of one run."""
    reoptimizer = run.join.reoptimizer
    return (
        run.results,
        run.duration_ms,
        reoptimizer.counters() if reoptimizer is not None else {},
    )


def plan_smoke() -> CheckResult:
    """The nary_drift preset at scale 0.3, planned adaptively and statically.

    Its rates invert mid-run, so the adaptive planner must switch
    orders and finish before the static stream order.
    """
    workload = generate_nary_workload(get_preset("nary_drift", scale=0.3))
    kept, failures = run_variants(
        {
            label: functools.partial(
                run_nary_experiment, workload,
                config=PJoinConfig(purge_threshold=8), planner=planner,
                # Probe-heavy charging, as in fig_nary_adaptive, so order
                # costs show against the fixed per-tuple overhead.
                cost_model=CostModel().with_overrides(probe_per_candidate=0.04),
                keep_items=True,
            )
            for label, planner in (
                ("adaptive", PlannerSpec(mode="adaptive", reopt_interval=2)),
                ("static", PlannerSpec(mode="static")),
            )
        },
        reference_nway_join_multiset(
            workload.schedules, workload.schemas, workload.join_fields
        ),
        _plan_outcome,
    )
    (results, adaptive_ms, reopt), (_, static_ms, _) = kept.values()
    if reopt["switches"] < 1:
        failures.append("adaptive: the planner never switched orders")
    if adaptive_ms >= static_ms:
        failures.append("adaptive: did not finish before static")
    summary: Summary = {
        "results": results,
        "boundaries": int(reopt["boundaries"]),
        "reopts": int(reopt["reopt.count"]),
        "switches": int(reopt["switches"]),
        "adaptive.finish_ms": round(adaptive_ms),
        "static.finish_ms": round(static_ms),
    }
    return summary, failures


def profile_smoke() -> CheckResult:
    """The profiling contract on fig5_pjoin at scale 0.25 (10x wall bound)."""
    preset = resolve_preset("fig5_pjoin")
    outcome = run_profile(preset, 0.25, profile=False).outcome()
    return outcome, check_profile(preset, 0.25)


def chaos(name: str) -> CheckResult:
    """A chaos preset under quarantine; its counter golden is the gate."""
    return dict(sorted(run_chaos(name).summary.items())), []


CHECKS: Dict[str, Callable[[], CheckResult]] = {
    **{
        f"chaos_{name}": functools.partial(chaos, name)
        for name in CHAOS_SCENARIOS
    },
    "memory_smoke": memory_smoke,
    "skew_smoke": skew_smoke,
    "shard_smoke": shard_smoke,
    "recovery_smoke": recovery_smoke,
    "plan_smoke": plan_smoke,
    "profile_smoke": profile_smoke,
}
