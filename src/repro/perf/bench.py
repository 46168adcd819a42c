"""The wall-clock benchmark-regression harness (``repro bench``).

Runs a pinned suite of paper-scale workloads, measures wall-clock
seconds, engine events per second and peak RSS, and writes a
``BENCH_<rev>.json`` report with machine metadata.  When a committed
baseline report exists the run is compared against it with a
configurable slowdown tolerance, turning the suite into a CI gate.

Two invariants make the numbers trustworthy:

* every case is a fully seeded, deterministic simulation, so the
  *virtual* results (result tuples, events executed) must match the
  baseline exactly — a mismatch means the code changed behaviour, not
  just speed, and is reported as such;
* workload generation happens outside the timed window, so the clock
  only covers simulation execution (the part the hot-path work targets).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import PJoinConfig
from repro.errors import ConfigError
from repro.experiments.harness import (
    active_governor,
    batching,
    governed,
    pjoin_factory,
    run_join_experiment,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec, parse_memory_budget
from repro.memory.policies import POLICIES
from repro.obs.logging import get_logger, setup_logging
from repro.resilience.chaos import run_chaos
from repro.workloads.generator import generate_workload

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

log = get_logger(__name__)

# Format 2 adds the optional ``layer_matrix`` section (per-layer
# feature-toggle overhead from ``--layer-matrix``); format-1 reports
# remain readable and comparable — the section is simply absent.
BENCH_FORMAT = 2
DEFAULT_BASELINE = Path("benchmarks") / "bench_baseline.json"
QUICK_BASELINE = Path("benchmarks") / "bench_baseline_quick.json"
DEFAULT_SCALE = 1.0
QUICK_SCALE = 0.25
DEFAULT_MAX_SLOWDOWN = 2.0


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark workload.

    ``prepare(scale)`` does all untimed setup (workload generation) and
    returns a thunk; calling the thunk executes the simulation and
    returns its deterministic outcome: ``events`` (engine events
    executed), ``results`` (result tuples) and ``virtual_ms``.
    """

    name: str
    description: str
    prepare: Callable[[float], Callable[[], Dict[str, Any]]]


def _experiment_outcome(run: Any) -> Dict[str, Any]:
    engine = run.manifest["engine"]
    return {
        "events": engine["events_executed"],
        "results": run.results,
        "virtual_ms": engine["virtual_now_ms"],
    }


def _fig5_case(scale: float, factory: Any, label: str) -> Callable[[], Dict[str, Any]]:
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=5,
    )

    def run() -> Dict[str, Any]:
        return _experiment_outcome(
            run_join_experiment(factory, workload, label=label)
        )

    return run


def _prepare_fig5_pjoin(scale: float) -> Callable[[], Dict[str, Any]]:
    return _fig5_case(
        scale, pjoin_factory(PJoinConfig(purge_threshold=1)), "bench:fig5:PJoin-1"
    )


def _prepare_fig5_xjoin(scale: float) -> Callable[[], Dict[str, Any]]:
    return _fig5_case(scale, xjoin_factory(), "bench:fig5:XJoin")


def _prepare_fig5_batched(scale: float) -> Callable[[], Dict[str, Any]]:
    # The fig5_pjoin workload with vectorized source admission (batch
    # 64).  The deterministic outcome is identical to fig5_pjoin by
    # construction (the equivalence suite proves it); only the wall
    # time moves, which is exactly what this case measures.
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=5,
    )
    factory = pjoin_factory(PJoinConfig(purge_threshold=1))

    def run() -> Dict[str, Any]:
        return _experiment_outcome(
            run_join_experiment(
                factory, workload, label="bench:fig5:PJoin-1-b64", batch_size=64
            )
        )

    return run


def _prepare_fig5_xjoin_tight(scale: float) -> Callable[[], Dict[str, Any]]:
    # The governor hot path: XJoin's ever-growing state against a warm
    # budget of 1/16th of one stream, so every probe risks a fault-in
    # and every insert an eviction sweep.
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=5,
    )
    spec = GovernorSpec(
        budget_tuples=float(max(_scaled(10_000, scale) // 16, 64))
    )

    def run() -> Dict[str, Any]:
        with governed(spec):
            return _experiment_outcome(
                run_join_experiment(
                    xjoin_factory(), workload, label="bench:fig5:XJoin-tight"
                )
            )

    return run


def _prepare_fig8_lazy(scale: float) -> Callable[[], Dict[str, Any]]:
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=9,
    )
    factory = pjoin_factory(PJoinConfig(purge_threshold=10))

    def run() -> Dict[str, Any]:
        return _experiment_outcome(
            run_join_experiment(workload=workload, factory=factory,
                                label="bench:fig8:PJoin-10")
        )

    return run


def _prepare_fig5_sharded(scale: float) -> Callable[[], Dict[str, Any]]:
    # The fig5_pjoin workload executed as 4 shard processes (the
    # multiprocess backend).  Worker forking happens here, untimed, so
    # the thunk measures simulation work only — the same window the
    # unsharded case times.
    from repro.shard.backend import ShardPlan, warm_pool

    n_shards = 4
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=5,
    )
    plan = ShardPlan(workload, n_shards)
    config = PJoinConfig(purge_threshold=1)
    # The governed() context does not cross the fork boundary, so the
    # active spec travels explicitly (and keys the pool cache).
    spec = active_governor()
    pool = warm_pool(
        ("fig5_pjoin_sharded", scale, n_shards, spec),
        plan, config=config, governor=spec,
    )

    def run() -> Dict[str, Any]:
        outcome = pool.run()
        return {
            "events": outcome.events,
            "results": outcome.result_count,
            "virtual_ms": outcome.virtual_now,
        }

    return run


def _prepare_nary_adaptive(scale: float) -> Callable[[], Dict[str, Any]]:
    # The adaptive planner's showcase: the nary_drift preset (arrival
    # rates and punctuation cadences invert mid-run) under probe-heavy
    # charging, joined 3-way with runtime re-optimization on.  Times
    # the whole planning stack — per-side stats collection, boundary
    # re-scoring and plan switches — on top of the n-ary hot path.
    from repro.experiments.harness import run_nary_experiment
    from repro.planner import PlannerSpec, get_preset
    from repro.sim.costs import CostModel
    from repro.workloads.nary import generate_nary_workload

    workload = generate_nary_workload(get_preset("nary_drift", scale=scale))
    config = PJoinConfig(purge_threshold=8)
    cost_model = CostModel().with_overrides(probe_per_candidate=0.04)
    planner = PlannerSpec(mode="adaptive", reopt_interval=2)

    def run() -> Dict[str, Any]:
        return _experiment_outcome(
            run_nary_experiment(
                workload, config=config, planner=planner,
                cost_model=cost_model, label="bench:nary:adaptive",
            )
        )

    return run


def _prepare_chaos_disorder(scale: float) -> Callable[[], Dict[str, Any]]:
    # Chaos scenarios are pinned at their preset size; scale is ignored
    # so quick and full reports stay comparable on this case.
    def run() -> Dict[str, Any]:
        chaos = run_chaos("disorder")
        engine = chaos.manifest["engine"]
        return {
            "events": engine["events_executed"],
            "results": chaos.sink.tuple_count,
            "virtual_ms": engine["virtual_now_ms"],
        }

    return run


def _prepare_chaos_crash(scale: float) -> Callable[[], Dict[str, Any]]:
    # Pinned at the preset size like chaos_disorder.  The thunk times
    # the whole recovery drill: the unsharded reference run, the
    # supervised sharded run with a seeded worker death, the checkpoint
    # restore and the in-flight-suffix replay.
    def run() -> Dict[str, Any]:
        chaos = run_chaos("crash")
        engine = chaos.manifest["engine"]
        return {
            "events": engine["events_executed"],
            "results": chaos.sink.tuple_count,
            "virtual_ms": engine["virtual_now_ms"],
        }

    return run


BENCH_CASES: Dict[str, BenchCase] = {
    case.name: case
    for case in (
        BenchCase(
            "fig5_pjoin",
            "Figure 5 workload (40 t/p, seed 5), PJoin with eager purge",
            _prepare_fig5_pjoin,
        ),
        BenchCase(
            "fig5_xjoin",
            "Figure 5 workload (40 t/p, seed 5), XJoin comparator",
            _prepare_fig5_xjoin,
        ),
        BenchCase(
            "fig5_pjoin_batched",
            "Figure 5 workload (40 t/p, seed 5), PJoin with eager purge, "
            "micro-batched sources (batch 64)",
            _prepare_fig5_batched,
        ),
        BenchCase(
            "fig5_pjoin_sharded",
            "Figure 5 workload (40 t/p, seed 5), PJoin sharded K=4 "
            "(multiprocess backend)",
            _prepare_fig5_sharded,
        ),
        BenchCase(
            "fig5_xjoin_tight_memory",
            "Figure 5 workload (40 t/p, seed 5), XJoin under a tight "
            "memory budget (n/16 tuples, LRU governor)",
            _prepare_fig5_xjoin_tight,
        ),
        BenchCase(
            "fig8_pjoin_lazy",
            "Figure 8 workload (10 t/p, seed 9), PJoin with lazy purge (10)",
            _prepare_fig8_lazy,
        ),
        BenchCase(
            "fig_nary_adaptive",
            "nary_drift preset (3-way, rate drift, seed 11), NaryPJoin "
            "with the adaptive probe-order planner (reopt every 2)",
            _prepare_nary_adaptive,
        ),
        BenchCase(
            "chaos_disorder",
            "Chaos 'disorder' preset under quarantine (fixed size)",
            _prepare_chaos_disorder,
        ),
        BenchCase(
            "chaos_crash_recovery",
            "Chaos 'crash' preset: seeded worker death, checkpoint "
            "restore and replay (fixed size)",
            _prepare_chaos_crash,
        ),
    )
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _peak_rss_kb() -> Optional[int]:
    """Process-wide peak RSS in KiB, or ``None`` where unsupported.

    ``resource`` is POSIX-only and even there some platforms (or
    sandboxed runtimes) omit ``ru_maxrss`` or refuse ``getrusage``;
    the bench must degrade to a ``None`` column, never crash.
    """
    if resource is None:  # pragma: no cover - non-POSIX platform
        return None
    try:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak = getattr(usage, "ru_maxrss", 0)
    except (ValueError, OSError):  # pragma: no cover - exotic runtimes
        return None
    if not peak:  # pragma: no cover - platform reports nothing useful
        return None
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


def git_rev() -> str:
    """Short git revision of the working tree, or ``"local"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        )
        return proc.stdout.strip() or "local"
    except Exception:
        return "local"


def run_case(case: BenchCase, scale: float, repeat: int = 1) -> Dict[str, Any]:
    """Measure one case; with ``repeat > 1`` keep the fastest wall time."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeat)):
        run = case.prepare(scale)
        # Pay off the garbage collector's debt from earlier work in this
        # process first: a full collection it triggers inside the timed
        # run costs more than a short case itself.
        gc.collect()
        start = time.perf_counter()
        outcome = run()
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_s"]:
            best = dict(outcome)
            best["wall_s"] = wall
    assert best is not None
    best["events_per_s"] = best["events"] / best["wall_s"] if best["wall_s"] else 0.0
    best["peak_rss_kb"] = _peak_rss_kb()
    return best


def run_bench(
    scale: float = DEFAULT_SCALE,
    cases: Optional[List[str]] = None,
    repeat: int = 1,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the suite and return the report dict (see module docstring)."""
    names = list(BENCH_CASES) if not cases else list(cases)
    unknown = [n for n in names if n not in BENCH_CASES]
    if unknown:
        raise ValueError(
            f"unknown bench cases {unknown}; available: {sorted(BENCH_CASES)}"
        )
    workloads: Dict[str, Any] = {}
    for name in names:
        if progress is not None:
            progress(f"running {name} (scale {scale:g}) ...")
        workloads[name] = run_case(BENCH_CASES[name], scale, repeat=repeat)
    return {
        "bench_format": BENCH_FORMAT,
        "rev": git_rev(),
        "created_unix": int(time.time()),
        "quick": quick,
        "scale": scale,
        "repeat": repeat,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": workloads,
    }


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def baseline_payload(report: Dict[str, Any]) -> Dict[str, Any]:
    """The committable subset of a report.

    Baselines are shared via version control, so host-specific metadata
    (``machine``) and the run's own comparison result have no place in
    them: they churn every capture and never feed the gate, which only
    reads scale, wall times and the deterministic outcomes.
    """
    return {
        key: value
        for key, value in report.items()
        if key not in ("machine", "comparison", "layer_matrix")
    }


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> Dict[str, Any]:
    """Diff *current* against *baseline*; ``ok`` is the regression gate.

    A case fails the gate when its wall time exceeds ``max_slowdown``
    times the baseline's.  Reports at different scales are not
    comparable; that is flagged as a failure rather than guessed around.
    """
    result: Dict[str, Any] = {
        "baseline_rev": baseline.get("rev"),
        "max_slowdown": max_slowdown,
        "workloads": {},
        "ok": True,
    }
    if current.get("repeat") != baseline.get("repeat"):
        # Wall times are best-of-N, so N changes the noise floor: a
        # repeat-1 run compared against a repeat-3 baseline conflates
        # regression with variance.  Warn loudly, but do not gate —
        # the comparison is still directionally useful.
        result["warning"] = (
            f"repeat mismatch: current {current.get('repeat')} vs "
            f"baseline {baseline.get('repeat')} — wall times are "
            "best-of-N, so slowdowns may be noise; re-run with "
            "matching --repeat"
        )
    if current.get("scale") != baseline.get("scale"):
        result["ok"] = False
        result["error"] = (
            f"scale mismatch: current {current.get('scale')} vs "
            f"baseline {baseline.get('scale')} — re-capture the baseline"
        )
        return result
    for name, cur in current.get("workloads", {}).items():
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            result["workloads"][name] = {"ok": True, "note": "no baseline case"}
            continue
        entry: Dict[str, Any] = {
            "wall_s_delta_pct": round(
                (cur["wall_s"] - base["wall_s"]) / base["wall_s"] * 100.0, 2
            ) if base["wall_s"] else None,
            "wall_ratio": round(
                cur["wall_s"] / base["wall_s"], 4
            ) if base["wall_s"] else None,
            "events_per_s_ratio": round(
                cur["events_per_s"] / base["events_per_s"], 4
            ) if base["events_per_s"] else None,
            "events_match": cur["events"] == base["events"],
            "results_match": cur["results"] == base["results"],
        }
        entry["ok"] = bool(
            base["wall_s"] == 0 or cur["wall_s"] <= max_slowdown * base["wall_s"]
        )
        if not entry["events_match"] or not entry["results_match"]:
            entry["note"] = (
                "deterministic outcome drifted vs baseline — behaviour "
                "changed, not just speed"
            )
        result["workloads"][name] = entry
        result["ok"] = result["ok"] and entry["ok"]
    layer_diff = _diff_layer_matrices(current, baseline)
    if layer_diff is not None:
        result["layer_matrix"] = layer_diff
    return result


def _diff_layer_matrices(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Per-variant overhead drift, when BOTH reports carry the matrix.

    Old (format-1) reports have no ``layer_matrix``; the diff simply
    stays absent — never a crash.  The diff is informational (overhead
    percentages move with host noise), so it does not gate ``ok``.
    """
    old = baseline.get("layer_matrix")
    new = current.get("layer_matrix")
    if not isinstance(old, dict) or not isinstance(new, dict):
        return None
    if old.get("preset") != new.get("preset"):
        return None
    diff: Dict[str, Any] = {}
    for name, entry in new.get("variants", {}).items():
        base_entry = old.get("variants", {}).get(name)
        if base_entry is None:
            continue
        overhead = entry.get("overhead_pct")
        base_overhead = base_entry.get("overhead_pct")
        diff[name] = {
            "overhead_pct": overhead,
            "baseline_overhead_pct": base_overhead,
            "delta_pct": (
                round(overhead - base_overhead, 2)
                if overhead is not None and base_overhead is not None
                else None
            ),
        }
    return diff or None


def render_report(report: Dict[str, Any]) -> str:
    """A human-readable table of the report (and comparison, if any)."""
    machine = report.get("machine", {})
    host = (
        f" | {machine['platform']} | python {machine['python']}"
        if machine else ""
    )
    lines = [
        f"bench @ {report['rev']} | scale {report['scale']:g}{host}",
        "",
        f"{'case':<18} {'wall s':>9} {'events':>9} {'events/s':>11} "
        f"{'results':>9} {'peak RSS MB':>12}",
    ]
    for name, w in report["workloads"].items():
        rss = w.get("peak_rss_kb")
        rss_mb = f"{rss / 1024:.1f}" if rss else "-"
        lines.append(
            f"{name:<18} {w['wall_s']:>9.3f} {w['events']:>9} "
            f"{w['events_per_s']:>11.0f} {w['results']:>9} {rss_mb:>12}"
        )
    matrix = report.get("layer_matrix")
    if matrix:
        from repro.profiling.runner import render_layer_matrix

        comparison = report.get("comparison") or {}
        lines.append("")
        lines.append(
            render_layer_matrix(matrix, diff=comparison.get("layer_matrix"))
        )
    comparison = report.get("comparison")
    if comparison:
        lines.append("")
        if comparison.get("warning"):
            lines.append(f"comparison warning: {comparison['warning']}")
        if comparison.get("error"):
            lines.append(f"comparison error: {comparison['error']}")
        else:
            lines.append(
                f"vs baseline @ {comparison['baseline_rev']} "
                f"(max slowdown {comparison['max_slowdown']:g}x):"
            )
            for name, entry in comparison["workloads"].items():
                if "wall_s_delta_pct" not in entry:
                    lines.append(f"  {name:<18} {entry.get('note', '')}")
                    continue
                status = "ok" if entry["ok"] else "REGRESSION"
                drift = "" if entry["events_match"] else "  [outcome drifted]"
                lines.append(
                    f"  {name:<18} wall {entry['wall_s_delta_pct']:+7.1f}%  "
                    f"events/s x{entry['events_per_s_ratio']:.2f}  "
                    f"{status}{drift}"
                )
        lines.append(f"gate: {'PASS' if comparison['ok'] else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI entry point (shared by ``repro bench`` and ``tools/bench.py``)
# ---------------------------------------------------------------------------


def add_bench_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick", action="store_true",
        help=f"small suite (scale {QUICK_SCALE}) for CI smoke runs",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="override the workload scale "
             f"(default {DEFAULT_SCALE}, or {QUICK_SCALE} with --quick)",
    )
    parser.add_argument(
        "--cases", nargs="*", default=None, metavar="NAME",
        help=f"subset of cases to run ({', '.join(BENCH_CASES)})",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="repetitions per case; the fastest wall time is kept",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="report path (default BENCH_<rev>.json in the current dir)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="PATH",
        help="baseline report to compare against (default "
             f"{DEFAULT_BASELINE}, or {QUICK_BASELINE} with --quick)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=DEFAULT_MAX_SLOWDOWN,
        help="fail when a case's wall time exceeds this multiple of the "
             "baseline's (default %(default)s)",
    )
    parser.add_argument(
        "--no-compare", action="store_true",
        help="skip the baseline comparison (measurement only)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="also write this report to the baseline path",
    )
    parser.add_argument(
        "--memory-budget", type=_budget_arg, default=None, metavar="BUDGET",
        help="attach the memory governor to every in-process case "
             "(tuple count, bytes with b/kb/mb/gb suffix, or 'inf'); "
             "wall times will not be comparable to an ungoverned "
             "baseline, so combine with --no-compare",
    )
    parser.add_argument(
        "--eviction-policy", choices=sorted(POLICIES), default="lru",
        help="governor eviction policy (default %(default)s)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="run every in-process case with micro-batched sources "
             "(N tuples admitted per scheduler event; results are "
             "byte-identical to the unbatched run, only wall time moves); "
             "wall times will not be comparable to an unbatched baseline, "
             "so combine with --no-compare",
    )
    parser.add_argument(
        "--layer-matrix", action="store_true",
        help="also run the feature-toggle grid (obs/resilience/governor/"
             "shard on and off) on the fig5_pjoin preset and record the "
             "per-layer overhead matrix in the report",
    )


def _budget_arg(text: str) -> float:
    try:
        return parse_memory_budget(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_bench(args: argparse.Namespace) -> int:
    scale = args.scale
    if scale is None:
        scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    spec = None
    if getattr(args, "memory_budget", None) is not None:
        spec = GovernorSpec(
            budget_tuples=args.memory_budget, policy=args.eviction_policy
        )
    try:
        with contextlib.ExitStack() as stack:
            if spec is not None:
                stack.enter_context(governed(spec))
            if getattr(args, "batch_size", None) is not None:
                stack.enter_context(batching(args.batch_size))
            report = run_bench(
                scale=scale,
                cases=args.cases,
                repeat=args.repeat,
                quick=args.quick,
                progress=log.info,
            )
    except ValueError as exc:
        log.error(str(exc))
        return 2

    if getattr(args, "layer_matrix", False):
        from repro.profiling.runner import layer_cost_matrix

        log.info("running layer-cost matrix (fig5_pjoin, scale %g) ...", scale)
        report["layer_matrix"] = layer_cost_matrix(
            "fig5_pjoin", scale=scale, repeat=args.repeat
        )

    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = QUICK_BASELINE if args.quick else DEFAULT_BASELINE
    gate_failed = False
    if not args.no_compare and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        report["comparison"] = compare_reports(
            report, baseline, max_slowdown=args.max_slowdown
        )
        report["comparison"]["baseline_path"] = str(baseline_path)
        if report["comparison"].get("warning"):
            log.warning(report["comparison"]["warning"])
        gate_failed = not report["comparison"]["ok"]
    elif not args.no_compare:
        log.warning("no baseline at %s; skipping comparison", baseline_path)

    out = args.out
    if out is None:
        out = Path(f"BENCH_{report['rev']}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline_payload(report), indent=1) + "\n"
        )
        log.info("wrote baseline: %s", baseline_path)

    print(render_report(report))
    print(f"\nwrote report: {out}")
    if gate_failed:
        # Name every offender: "gate: FAIL" alone is useless in a CI log.
        comparison = report["comparison"]
        if comparison.get("error"):
            log.error("bench gate FAILED: %s", comparison["error"])
        for name, entry in comparison["workloads"].items():
            if entry.get("ok", True):
                continue
            ratio = entry.get("wall_ratio")
            ratio_text = f"{ratio:.2f}x" if ratio is not None else "?"
            log.error(
                "bench gate FAILED: %s ran %s the baseline wall time "
                "(limit %gx)",
                name, ratio_text, comparison["max_slowdown"],
            )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Run the pinned benchmark suite and write BENCH_<rev>.json",
    )
    add_bench_args(parser)
    setup_logging()
    return cmd_bench(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
