"""Run profiling presets and attribute hot-path cost per layer.

Two measurements live here:

* :func:`run_profile` — one preset, one feature set, with the scoped
  timers attached: yields the per-layer exclusive wall times and the
  virtual-time latency histograms (``repro profile``'s default view);
* :func:`layer_cost_matrix` — the on/off feature grid, *unprofiled*:
  each variant (baseline, each feature alone, all together) is timed
  end-to-end, so the matrix reports what a layer costs with no
  measurement shadows in the path.  ``repro bench --layer-matrix``
  embeds this into ``BENCH_<rev>.json`` per commit.

:func:`check_profile` is the profiling contract, which ``repro check
profile_smoke`` gates: profiling must not change the simulation
(profiled and unprofiled runs produce identical manifests), an
unprofiled run must carry *no* instrumentation shadows (the
compiled-out no-op property, checked structurally), and the profiled
wall overhead must stay under a bound.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.experiments.harness import (
    ExperimentRun,
    positive_int,
    run_join_experiment,
    run_options,
)
from repro.memory.budget import GovernorSpec
from repro.metrics.report import render_table
from repro.obs.logging import get_logger
from repro.obs.profile import LAYERS, Profiler
from repro.obs.trace import Tracer
from repro.operators import fastpath
from repro.profiling.presets import (
    ALIASES,
    FEATURES,
    PROFILE_PRESETS,
    ProfilePreset,
    resolve_preset,
)

log = get_logger(__name__)

DEFAULT_SCALE = 1.0
DEFAULT_MAX_OVERHEAD = 10.0


@dataclass
class ProfileRun:
    """One measured preset run (profiled or not)."""

    preset: ProfilePreset
    features: Sequence[str]
    run: ExperimentRun
    profiler: Optional[Profiler]
    wall_s: float

    def outcome(self) -> Dict[str, Any]:
        """The deterministic outcome (must not depend on profiling)."""
        engine = self.run.manifest["engine"]
        return {
            "events": engine["events_executed"],
            "results": self.run.results,
            "virtual_ms": engine["virtual_now_ms"],
        }

    @property
    def events_per_s(self) -> float:
        events = int(self.run.manifest["engine"]["events_executed"])
        return events / self.wall_s if self.wall_s else 0.0


def _feature_options(features: Iterable[str]) -> Dict[str, Any]:
    """The run-option fields that switch each feature layer on."""
    options: Dict[str, Any] = {}
    for feature in features:
        if feature == "obs":
            options["tracer"] = Tracer()
        elif feature == "governor":
            # An infinite budget attaches the governor's hot-path hooks
            # (charge, fault-in probes) without ever spilling, which is
            # exactly the "what does the layer cost when idle" question.
            options["governor"] = GovernorSpec(math.inf)
        elif feature == "shard":
            # K=1 routes every tuple through router and merger while
            # replaying the unsharded execution, isolating routing cost.
            options["shards"] = 1
        elif feature != "resilience":  # resilience is a factory knob
            raise ConfigError(
                f"unknown feature {feature!r}; choose from {FEATURES}"
            )
    return options


def normalize_features(
    spec: Optional[str], preset: ProfilePreset
) -> List[str]:
    """Parse a ``--features`` value against what *preset* supports.

    ``all`` means every feature the preset can toggle; ``none`` (or an
    empty value) means the bare core path; otherwise a comma-separated
    subset in grid order.
    """
    if spec is None or spec == "all":
        return list(preset.features)
    if spec == "none" or spec.strip() == "":
        return []
    chosen = [part.strip() for part in spec.split(",") if part.strip()]
    unknown = [f for f in chosen if f not in FEATURES]
    if unknown:
        raise ConfigError(f"unknown features {unknown}; choose from {FEATURES}")
    unsupported = [f for f in chosen if f not in preset.features]
    if unsupported:
        raise ConfigError(
            f"preset {preset.name!r} cannot toggle {unsupported}; "
            f"it supports {list(preset.features)}"
        )
    return [f for f in FEATURES if f in chosen]


def run_profile(
    preset: ProfilePreset,
    scale: float = DEFAULT_SCALE,
    features: Sequence[str] = (),
    profile: bool = True,
    workload: Any = None,
) -> ProfileRun:
    """Execute *preset* once; workload generation stays untimed."""
    if workload is None:
        workload = preset.workload(scale)
    factory = preset.factory(resilience="resilience" in features)
    profiler = Profiler() if profile else None
    with run_options(profiler=profiler, **_feature_options(features)):
        begin = time.perf_counter()
        run = run_join_experiment(
            factory, workload, label=f"profile:{preset.name}"
        )
        wall = time.perf_counter() - begin
    return ProfileRun(preset, list(features), run, profiler, wall)


# ---------------------------------------------------------------------------
# The on/off layer-cost matrix (unprofiled wall times)
# ---------------------------------------------------------------------------


def layer_cost_matrix(
    preset_name: str = "fig5_pjoin",
    scale: float = DEFAULT_SCALE,
    repeat: int = 1,
) -> Dict[str, Any]:
    """Wall-clock cost of each feature layer, measured by toggling it.

    Variants: the bare baseline, each supported feature alone, and all
    of them together.  Every variant keeps the fastest of *repeat*
    runs; ``overhead_pct`` is relative to the baseline's wall time.
    No profiler shadows are installed — the matrix measures the
    features themselves, not the measurement.
    """
    preset = resolve_preset(preset_name)
    workload = preset.workload(scale)
    variant_features: Dict[str, List[str]] = {"none": []}
    for feature in preset.features:
        variant_features[feature] = [feature]
    if len(preset.features) > 1:
        variant_features["all"] = list(preset.features)

    variants: Dict[str, Dict[str, Any]] = {}
    baseline_wall: Optional[float] = None
    for name, features in variant_features.items():
        best: Optional[ProfileRun] = None
        for _ in range(max(1, repeat)):
            measured = run_profile(
                preset, scale, features, profile=False, workload=workload
            )
            if best is None or measured.wall_s < best.wall_s:
                best = measured
        assert best is not None
        entry: Dict[str, Any] = {
            "features": features,
            "wall_s": round(best.wall_s, 4),
            "events_per_s": round(best.events_per_s, 1),
            **best.outcome(),
        }
        if name == "none":
            baseline_wall = best.wall_s
            entry["overhead_pct"] = 0.0
        elif baseline_wall:
            entry["overhead_pct"] = round(
                (best.wall_s - baseline_wall) / baseline_wall * 100.0, 2
            )
        else:
            entry["overhead_pct"] = None
        variants[name] = entry
    return {
        "preset": preset.name,
        "scale": scale,
        "repeat": repeat,
        "variants": variants,
    }


def render_layer_matrix(
    matrix: Dict[str, Any], diff: Optional[Dict[str, Any]] = None
) -> str:
    """The matrix as a table; *diff* adds a vs-baseline column."""
    headers = ["variant", "wall s", "events/s", "overhead %"]
    if diff is not None:
        headers.append("vs baseline")
    rows: List[List[Any]] = []
    for name, entry in matrix["variants"].items():
        overhead = entry.get("overhead_pct")
        row: List[Any] = [
            name,
            f"{entry['wall_s']:.3f}",
            f"{entry['events_per_s']:.0f}",
            f"{overhead:+.1f}" if overhead is not None else "-",
        ]
        if diff is not None:
            delta = diff.get(name, {}).get("delta_pct")
            row.append(f"{delta:+.1f}pp" if delta is not None else "-")
        rows.append(row)
    title = f"layer-cost matrix ({matrix['preset']} @ scale {matrix['scale']:g})"
    return title + "\n" + render_table(headers, rows)


# ---------------------------------------------------------------------------
# Rendering the profiled view
# ---------------------------------------------------------------------------


def render_layer_table(snapshot: Dict[str, Any]) -> str:
    """The per-layer overhead table of one profiler snapshot."""
    rows = []
    for layer in LAYERS:
        entry = snapshot["layers"][layer]
        rows.append([
            layer,
            f"{entry['self_ms']:.2f}",
            f"{entry['share'] * 100.0:.1f}%",
            entry["calls"],
        ])
    rows.append(["total", f"{snapshot['total_ms']:.2f}", "100.0%", ""])
    return render_table(["layer", "self ms", "share", "calls"], rows)


def render_histograms(snapshot: Dict[str, Any]) -> str:
    """The latency histogram summaries of one profiler snapshot."""
    rows = []
    for name, summary in snapshot.get("histograms", {}).items():
        rows.append([
            name,
            summary["count"],
            summary["p50_ms"],
            summary["p95_ms"],
            summary["p99_ms"],
            summary["max_ms"],
        ])
    if not rows:
        return "no latency histograms recorded"
    return render_table(
        ["histogram (virtual ms)", "count", "p50", "p95", "p99", "max"], rows
    )


# ---------------------------------------------------------------------------
# The profiling contract
# ---------------------------------------------------------------------------


def check_profile(
    preset: ProfilePreset,
    scale: float,
    max_overhead: float = DEFAULT_MAX_OVERHEAD,
) -> List[str]:
    """Assert the profiling contract; returns failure messages.

    Three properties: (1) an unprofiled run carries no instrumentation
    shadows — off means the hooks do not exist; (2) a profiled run is
    deterministically identical to an unprofiled one (same manifest);
    (3) the profile snapshot is schema-complete with per-layer times
    summing to at most the total span, and the profiled wall time stays
    under ``max_overhead`` times the unprofiled one.
    """
    failures: List[str] = []
    workload = preset.workload(scale)
    plain = run_profile(preset, scale, (), profile=False, workload=workload)
    profiled = run_profile(preset, scale, (), profile=True, workload=workload)

    # (1) structurally no-op when off: nothing shadowed, no snapshot.
    # A join's tagged item handler (repro.operators.fastpath) is not a
    # profiler leak.
    def _profiler_shadow(op: Any) -> bool:
        fn = vars(op).get("handle")
        return fn is not None and getattr(fn, "__repro_profiled__", False)

    join = plain.run.join
    if _profiler_shadow(join):
        failures.append("unprofiled join carries a handle shadow")
    if plain.run.profile is not None:
        failures.append("unprofiled run unexpectedly carries a profile")
    if profiled.run.join is not join and _profiler_shadow(profiled.run.join):
        failures.append("profiled join still shadowed after restore()")
    if fastpath.has_handler(join) and not fastpath.has_handler(profiled.run.join):
        failures.append("item handler did not survive profiler restore()")

    # (2) profiling must not change the simulation.
    if profiled.outcome() != plain.outcome():
        failures.append(
            f"profiled outcome {profiled.outcome()} != "
            f"unprofiled {plain.outcome()}"
        )
    if profiled.run.manifest != plain.run.manifest:
        failures.append("profiled manifest differs from unprofiled manifest")

    # (3) snapshot schema and measurement sanity.
    snapshot = profiled.run.profile
    if snapshot is None:
        failures.append("profiled run has no profile snapshot")
    else:
        missing = [layer for layer in LAYERS if layer not in snapshot["layers"]]
        if missing:
            failures.append(f"profile snapshot missing layers {missing}")
        layer_sum = sum(
            entry["self_ms"] for entry in snapshot["layers"].values()
        )
        if layer_sum > snapshot["total_ms"] * 1.001 + 0.001:
            failures.append(
                f"layer self times {layer_sum:.3f}ms exceed total span "
                f"{snapshot['total_ms']:.3f}ms"
            )
        histograms = snapshot.get("histograms", {})
        for name in ("result_latency_ms", "probe_cost_ms"):
            summary = histograms.get(name)
            if summary is None or summary.get("count", 0) <= 0:
                failures.append(f"histogram {name} recorded nothing")
            elif not all(f"p{p:g}_ms" in summary for p in (50, 95, 99)):
                failures.append(f"histogram {name} missing p50/p95/p99")
    if plain.wall_s and profiled.wall_s > max_overhead * plain.wall_s:
        failures.append(
            f"profiled wall {profiled.wall_s:.3f}s exceeds "
            f"{max_overhead:g}x the unprofiled {plain.wall_s:.3f}s"
        )
    return failures


# ---------------------------------------------------------------------------
# CLI entry point (shared by ``repro profile`` and direct invocation)
# ---------------------------------------------------------------------------


def add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "preset", nargs="?", default="fig5_pjoin",
        help="profiling preset "
             f"({', '.join(PROFILE_PRESETS)}; aliases {', '.join(ALIASES)})",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help="workload scale factor (default %(default)s)",
    )
    parser.add_argument(
        "--features", default="all", metavar="SPEC",
        help="feature layers to enable: 'all' (default), 'none', or a "
             f"comma-separated subset of {','.join(FEATURES)}",
    )
    parser.add_argument(
        "--grid", action="store_true",
        help="also run the unprofiled on/off feature grid and print the "
             "layer-cost matrix",
    )
    parser.add_argument(
        "--repeat", type=positive_int, default=1,
        help="grid repetitions per variant; fastest wall time kept",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the profile report (manifest + profile section) as JSON",
    )
    parser.add_argument(
        "--collapsed", type=Path, default=None, metavar="PATH",
        help="write collapsed-stack lines (FlameGraph / flamegraph.pl input)",
    )
    parser.add_argument(
        "--speedscope", type=Path, default=None, metavar="PATH",
        help="write a speedscope-compatible JSON profile "
             "(open at https://speedscope.app)",
    )


def cmd_profile(args: argparse.Namespace) -> int:
    try:
        preset = resolve_preset(args.preset)
        features = normalize_features(args.features, preset)
    except ConfigError as exc:
        log.error(str(exc))
        return 2

    log.info("profiling %s (scale %g, features %s)",
             preset.name, args.scale, ",".join(features) or "none")
    profiled = run_profile(preset, args.scale, features, profile=True)
    snapshot = profiled.run.profile
    assert snapshot is not None and profiled.profiler is not None
    print(f"profile: {preset.name} @ scale {args.scale:g} | features "
          f"{','.join(features) or 'none'} "
          f"| wall {profiled.wall_s:.3f}s "
          f"| {profiled.events_per_s:.0f} events/s")
    print()
    print(render_layer_table(snapshot))
    print()
    print(render_histograms(snapshot))

    matrix: Optional[Dict[str, Any]] = None
    if args.grid:
        log.info("running the on/off feature grid (repeat %d)", args.repeat)
        matrix = layer_cost_matrix(preset.name, args.scale, repeat=args.repeat)
        print()
        print(render_layer_matrix(matrix))

    if args.collapsed is not None or args.speedscope is not None:
        from repro.profiling.stacks import save_collapsed, save_speedscope

        if args.collapsed is not None:
            save_collapsed(profiled.profiler, args.collapsed)
            print(f"\nwrote collapsed stacks: {args.collapsed}")
        if args.speedscope is not None:
            save_speedscope(
                profiled.profiler, args.speedscope,
                name=f"repro profile {preset.name}",
            )
            print(f"wrote speedscope profile: {args.speedscope}")

    if args.out is not None:
        report: Dict[str, Any] = {
            "profile_format": 1,
            "preset": preset.name,
            "scale": args.scale,
            "features": features,
            "wall_s": round(profiled.wall_s, 4),
            "outcome": profiled.outcome(),
            # The run manifest itself stays profile-free (byte identity
            # with unprofiled runs); the profile rides alongside here.
            "manifest": profiled.run.manifest,
            "profile": snapshot,
        }
        if matrix is not None:
            report["layer_matrix"] = matrix
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote profile report: {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs.logging import setup_logging

    parser = argparse.ArgumentParser(
        prog="profile",
        description="Attribute hot-path wall time to feature layers",
    )
    add_profile_args(parser)
    setup_logging()
    return cmd_profile(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
