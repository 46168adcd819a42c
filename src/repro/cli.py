"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures`` — run paper-figure presets (and ablations) and print their
  reports;
* ``demo`` — a one-shot PJoin-vs-XJoin comparison on a configurable
  workload;
* ``list`` — show every available experiment;
* ``trace`` — run a traced PJoin workload *or* any experiment preset and
  print the span timeline; export Chrome trace JSON / JSONL / manifests;
* ``metrics`` — run a workload or preset and print the per-operator
  counter registries from its run manifest;
* ``obs`` — the observability group: ``obs trace`` and ``obs metrics``
  are aliases of the two commands above;
* ``chaos`` — run deterministic fault-injection scenarios (contract
  violations, disorder, disk faults, source stalls) under a chosen
  fault policy and print/check their resilience counter summaries;
* ``memory`` — the memory-governor smoke: one fig5-style workload at an
  unlimited and a tight state budget, asserting result-multiset
  equivalence and nonzero spill counters (the CI memory-smoke gate);
* ``skew`` — the skew-layer smoke: one Zipf-keyed workload joined
  statically, with adaptive split/coalesce buckets, and on the sharded
  stack with and without hot-key replication, asserting result-multiset
  equivalence, active skew counters and (with ``--check DIR``) a
  counter golden (the CI skew-smoke gate).

``figures``, ``demo``, ``shard`` and ``bench`` accept
``--memory-budget`` / ``--eviction-policy`` to attach the memory
governor (budgeted join state with spill/fault-back) to every join.

Examples
--------
::

    python -m repro list
    python -m repro figures figure5 figure7 --scale 0.5
    python -m repro figures --all --scale 0.2
    python -m repro demo --tuples 5000 --spacing-a 10 --spacing-b 20
    python -m repro trace figure8 --scale 0.1 --chrome trace.json
    python -m repro metrics --tuples 2000 --manifest run.json
    python -m repro chaos gentle disk_storm --policy quarantine
    python -m repro chaos --all --check tests/goldens
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import repro
from repro.core.config import PJoinConfig
from repro.errors import ConfigError, RecoveryError
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.harness import (
    RunOptions,
    pjoin_factory,
    positive_int,
    run_join_experiment,
    run_options,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec, format_budget, parse_memory_budget
from repro.memory.policies import POLICIES
from repro.metrics.report import render_table
from repro.obs.export import render_timeline, save_chrome_trace, save_jsonl
from repro.obs.logging import LOG_LEVELS, get_logger, setup_logging
from repro.obs.trace import Tracer
from repro.planner import PlannerSpec
from repro.resilience.chaos import CHAOS_SCENARIOS, run_chaos
from repro.resilience.policy import FAULT_POLICIES, QUARANTINE
from repro.workloads.generator import generate_workload

ALL_EXPERIMENTS = {**ALL_FIGURES, **ALL_ABLATIONS}

log = get_logger(__name__)


def _budget_type(text: str) -> float:
    """argparse type for ``--memory-budget`` (tuples or byte suffixes)."""
    try:
        return parse_memory_budget(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_memory_args(parser: argparse.ArgumentParser) -> None:
    """The memory-governor flags shared by figures/demo/shard/bench."""
    parser.add_argument(
        "--memory-budget", type=_budget_type, default=None, metavar="BUDGET",
        help="warm join-state budget: a tuple count, bytes with a "
             "b/kb/mb/gb suffix, or 'inf' (governor attached but never "
             "spilling); omit to run ungoverned",
    )
    parser.add_argument(
        "--eviction-policy", choices=sorted(POLICIES), default="lru",
        help="governor eviction policy (default %(default)s)",
    )


def _add_batch_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size", type=positive_int, default=1, metavar="N",
        help="admit source tuples in micro-batches of N per scheduler "
             "event (default 1); results are byte-identical to the "
             "unbatched run, only wall-clock time changes",
    )


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--planner", choices=("static", "adaptive"), default="static",
        help="probe-order planning for n-way joins built by the presets "
             "(default %(default)s = fixed stream order, byte-identical "
             "to unplanned runs); 'adaptive' re-optimizes the order at "
             "punctuation-aligned purge boundaries",
    )


def _governor_spec(args: argparse.Namespace) -> Optional[GovernorSpec]:
    """The GovernorSpec requested on the command line, if any."""
    budget = getattr(args, "memory_budget", None)
    if budget is None:
        return None
    return GovernorSpec(budget_tuples=budget, policy=args.eviction_policy)


def _run_options(args: argparse.Namespace) -> RunOptions:
    """The run options that the figures/demo build flags request.

    ``--planner static`` sets no planner: the default build is already
    the fixed stream order and stays byte-identical to unplanned runs.
    """
    adaptive = getattr(args, "planner", "static") == "adaptive"
    return RunOptions(
        shards=args.shards,
        governor=_governor_spec(args),
        planner=PlannerSpec(mode="adaptive") if adaptive else None,
        batch_size=args.batch_size,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Joining Punctuated Streams' (EDBT 2004)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    parser.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default="info",
        help="diagnostic verbosity on stderr (default %(default)s); "
             "report output on stdout is unaffected",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress diagnostics below error level (overrides --log-level)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as JSON lines (machine-readable logs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list available experiments")
    list_cmd.set_defaults(func=cmd_list)

    figures_cmd = sub.add_parser(
        "figures", help="run paper-figure presets and print their reports"
    )
    figures_cmd.add_argument(
        "names", nargs="*",
        help="experiment names (e.g. figure5 ablation_purge_sweep)",
    )
    figures_cmd.add_argument(
        "--all", action="store_true", help="run every figure and ablation"
    )
    figures_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default 1.0 = paper scale)",
    )
    figures_cmd.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="run each experiment's sweep points across N worker "
             "processes (results are identical to a serial run)",
    )
    figures_cmd.add_argument(
        "--shards", type=positive_int, default=None, metavar="K",
        help="run every join in the presets as a K-shard stack "
             "(K=1 replays the unsharded execution exactly)",
    )
    figures_cmd.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="also write each experiment's figure JSON (series, checks "
             "and run manifests) to DIR/<name>.json",
    )
    _add_memory_args(figures_cmd)
    _add_batch_args(figures_cmd)
    _add_planner_args(figures_cmd)
    figures_cmd.set_defaults(func=cmd_figures)

    demo_cmd = sub.add_parser(
        "demo", help="compare PJoin and XJoin on one synthetic workload"
    )
    demo_cmd.add_argument("--tuples", type=int, default=5000,
                          help="tuples per stream")
    demo_cmd.add_argument("--spacing-a", type=float, default=20.0,
                          help="stream A punctuation spacing (tuples)")
    demo_cmd.add_argument("--spacing-b", type=float, default=20.0,
                          help="stream B punctuation spacing (tuples)")
    demo_cmd.add_argument("--purge-threshold", type=int, default=10,
                          help="PJoin purge threshold (1 = eager)")
    demo_cmd.add_argument("--seed", type=int, default=42)
    demo_cmd.add_argument(
        "--shards", type=positive_int, default=None, metavar="K",
        help="run both joins as K-shard stacks",
    )
    _add_memory_args(demo_cmd)
    _add_batch_args(demo_cmd)
    demo_cmd.set_defaults(func=cmd_demo)

    _add_plan_parser(sub)
    _add_shard_parser(sub)
    _add_memory_parser(sub)
    _add_skew_parser(sub)
    _add_trace_parser(sub)
    _add_metrics_parser(sub)
    _add_chaos_parser(sub)
    _add_bench_parser(sub)
    _add_profile_parser(sub)

    obs_cmd = sub.add_parser(
        "obs",
        help="observability tools: span tracing and counter registries",
        description="Observability tools built on the repro.obs layer: "
                    "'obs trace' prints and exports span timelines, "
                    "'obs metrics' prints per-operator counter registries.",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    _add_trace_parser(obs_sub)
    _add_metrics_parser(obs_sub)

    return parser


def _add_plan_parser(sub) -> None:
    plan_cmd = sub.add_parser(
        "plan",
        help="run the adaptive probe-order planner on an n-way preset "
             "and explain its decisions",
        description="Runs an n-way punctuated join over a named planner "
                    "preset with adaptive probe-order planning, prints "
                    "the planner counters and the punctuation-aligned "
                    "decision log, and (with --explain) the per-candidate "
                    "cost breakdown behind every decision.  With --check "
                    "it also runs the static plan and verifies the "
                    "adaptive run reproduced the identical result "
                    "multiset.",
    )
    plan_cmd.add_argument(
        "preset", nargs="?", default="nary_drift",
        help="planner preset name (default %(default)s); see --list",
    )
    plan_cmd.add_argument(
        "--list", action="store_true", dest="list_presets",
        help="list the available presets and exit",
    )
    plan_cmd.add_argument(
        "--scale", type=float, default=0.3,
        help="workload scale factor (default %(default)s)",
    )
    plan_cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the preset's workload seed",
    )
    plan_cmd.add_argument(
        "--reopt-interval", type=int, default=2, metavar="K",
        help="re-optimize every Kth purge-complete boundary "
             "(default %(default)s)",
    )
    plan_cmd.add_argument(
        "--purge-threshold", type=int, default=8, metavar="N",
        help="join purge threshold (default %(default)s); the purge "
             "boundaries it induces are the planner's re-plan points",
    )
    plan_cmd.add_argument(
        "--explain", action="store_true",
        help="print the per-candidate cost table behind every decision",
    )
    plan_cmd.add_argument(
        "--check", action="store_true",
        help="also run the static plan and exit non-zero unless the "
             "adaptive run produced the identical result multiset",
    )
    plan_cmd.set_defaults(func=cmd_plan)


def cmd_plan(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.checkpoint import cover_cut_times_n
    from repro.errors import PlannerError
    from repro.experiments.harness import run_nary_experiment
    from repro.planner import PlannerSpec, get_preset, preset_names
    from repro.sim.costs import CostModel
    from repro.workloads.nary import generate_nary_workload

    if args.list_presets:
        for name in preset_names():
            print(name)
        return 0
    try:
        spec = get_preset(args.preset, scale=args.scale)
    except PlannerError as exc:
        log.error(str(exc))
        return 2
    if args.seed is not None:
        spec = spec.with_overrides(seed=args.seed)
    workload = generate_nary_workload(spec)
    names = list(workload.stream_names)
    config = PJoinConfig(purge_threshold=args.purge_threshold)
    # Probe-heavy charging (as in fig_nary_adaptive) so order costs are
    # visible against the fixed per-tuple overhead.
    cost_model = CostModel().with_overrides(probe_per_candidate=0.04)
    planner = PlannerSpec(mode="adaptive", reopt_interval=args.reopt_interval)
    adaptive = run_nary_experiment(
        workload, config=config, planner=planner,
        cost_model=cost_model, label="adaptive",
        keep_items=args.check,
    )
    static = None
    if args.check:
        static = run_nary_experiment(
            workload, config=config,
            planner=PlannerSpec(mode="static"),
            cost_model=cost_model, label="static",
            keep_items=True,
        )
    reopt = adaptive.join.reoptimizer
    order_names = lambda order: "->".join(names[i] for i in order)  # noqa: E731
    initial = planner.initial_order or tuple(range(len(names)))
    print(f"preset:      {args.preset} (scale {args.scale}, "
          f"seed {workload.spec.seed})")
    print(f"streams:     {', '.join(names)}")
    print(f"probe order: {order_names(initial)} -> "
          f"{order_names(adaptive.join.stream_order)}")
    print(f"results:     {adaptive.results} tuples in "
          f"{adaptive.duration_ms:.0f} virtual ms")
    boundaries = cover_cut_times_n(
        workload.schedules, workload.join_fields,
        every=args.purge_threshold,
    )
    print(f"boundaries:  {reopt.boundaries} purge-complete cover cuts "
          f"(schedule predicts {len(boundaries)}), re-optimized every "
          f"{args.reopt_interval}")
    print()
    print("planner counters:")
    for key, value in sorted(reopt.counters().items()):
        print(f"  planner.{key:<22} {value:g}")
    decisions = list(reopt.decisions)
    if decisions:
        print()
        rows = [
            [
                f"{d.at_ms:.0f}",
                d.boundary,
                order_names(d.previous),
                order_names(d.chosen),
                "switch" if d.switched else "hold",
                f"{d.current_cost:.3f}",
                f"{d.best_cost:.3f}",
                f"{d.cost_delta:+.3f}",
            ]
            for d in decisions
        ]
        print(
            render_table(
                ["at (ms)", "boundary", "previous", "chosen", "action",
                 "incumbent", "best", "delta"],
                rows,
            )
        )
    if args.explain:
        for d in decisions:
            print()
            print(f"decision at {d.at_ms:.0f} ms (boundary {d.boundary}, "
                  f"{'switched' if d.switched else 'held'}):")
            print(d.choice.explain(names))
    if args.check:
        adaptive_counts = Counter(dict(adaptive.sink.result_multiset()))
        static_counts = Counter(dict(static.sink.result_multiset()))
        equivalent = adaptive_counts == static_counts
        print()
        print(
            "equivalence: adaptive "
            + ("reproduced" if equivalent else "DIVERGED FROM")
            + f" the static result multiset ({static.results} tuples)"
        )
        if not equivalent:
            return 1
    return 0


def _add_shard_parser(sub) -> None:
    shard_cmd = sub.add_parser(
        "shard",
        help="demo the sharded join stack and check backend equivalence",
        description="Run one PJoin workload unsharded and as a K-shard "
                    "stack (in-simulator and/or multiprocess backend), "
                    "print per-variant results and verify the sharded "
                    "runs reproduce the unsharded output exactly.",
    )
    shard_cmd.add_argument("--tuples", type=int, default=4000,
                           help="tuples per stream")
    shard_cmd.add_argument("--spacing-a", type=float, default=40.0,
                           help="stream A punctuation spacing (tuples)")
    shard_cmd.add_argument("--spacing-b", type=float, default=40.0,
                           help="stream B punctuation spacing (tuples)")
    shard_cmd.add_argument("--purge-threshold", type=int, default=10,
                           help="PJoin purge threshold (1 = eager)")
    shard_cmd.add_argument("--seed", type=int, default=42)
    shard_cmd.add_argument(
        "--shards", type=_int_list, default=[1, 2, 4], metavar="K[,K...]",
        help="comma-separated shard counts to run (default 1,2,4)",
    )
    shard_cmd.add_argument(
        "--backend", choices=["sim", "mp", "both"], default="sim",
        help="in-simulator backend, multiprocess backend, or both",
    )
    shard_cmd.add_argument(
        "--propagate", action="store_true",
        help="enable punctuation propagation (merged output punctuations); "
             "exact punctuation equivalence needs --purge-threshold 1, as "
             "lazy purge batches land on different boundaries per shard",
    )
    shard_cmd.add_argument(
        "--checkpoint-every", type=int, default=8, metavar="N",
        help="checkpoint every Nth punctuation-cover boundary in the "
             "--crash and --rescale variants (default 8)",
    )
    shard_cmd.add_argument(
        "--crash", default=None, metavar="SHARD@N",
        help="add a supervised-recovery row per shard count: kill shard "
             "SHARD's worker before its Nth delivery, restore the latest "
             "checkpoint and replay the in-flight suffix",
    )
    shard_cmd.add_argument(
        "--rescale", default=None, metavar="K1:K2@T",
        help="add a live-rescaling row: run K1 shards, quiesce at the "
             "first punctuation-cover boundary at/after virtual time T "
             "(T=mid for half the workload), migrate the checkpointed "
             "state across K2 shards and resume",
    )
    shard_cmd.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every sharded run matches the "
             "unsharded reference",
    )
    _add_memory_args(shard_cmd)
    shard_cmd.set_defaults(func=cmd_shard)


def _add_memory_parser(sub) -> None:
    memory_cmd = sub.add_parser(
        "memory",
        help="memory-governor smoke: unlimited vs tight budget on one "
             "fig5-style workload, with equivalence and spill checks",
        description="Runs PJoin and XJoin over one figure-5-style "
                    "workload twice — with an unlimited and a tight "
                    "memory budget — and verifies the governed runs "
                    "reproduce the same result multiset while the tight "
                    "budget actually spills (the CI memory-smoke gate).",
    )
    memory_cmd.add_argument("--tuples", type=int, default=2000,
                            help="tuples per stream")
    memory_cmd.add_argument("--spacing-a", type=float, default=40.0,
                            help="stream A punctuation spacing (tuples)")
    memory_cmd.add_argument("--spacing-b", type=float, default=40.0,
                            help="stream B punctuation spacing (tuples)")
    memory_cmd.add_argument("--seed", type=int, default=5)
    memory_cmd.add_argument(
        "--budget", type=_budget_type, default="100", metavar="BUDGET",
        help="the tight warm-state budget (default %(default)s tuples)",
    )
    memory_cmd.add_argument(
        "--eviction-policy", choices=sorted(POLICIES), default="lru",
        help="governor eviction policy (default %(default)s)",
    )
    memory_cmd.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every governed run reproduces the "
             "ungoverned result multiset and the tight budget spills",
    )
    memory_cmd.set_defaults(func=cmd_memory)


def cmd_memory(args: argparse.Namespace) -> int:
    import math

    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        seed=args.seed,
    )
    if math.isinf(args.budget):
        log.error("--budget must be finite (the unlimited run is implicit)")
        return 2
    factories = [
        ("PJoin-1", lambda: pjoin_factory(PJoinConfig(purge_threshold=1))),
        ("XJoin", lambda: xjoin_factory()),
    ]
    budgets = [
        ("inf", GovernorSpec(math.inf, policy=args.eviction_policy)),
        (format_budget(args.budget),
         GovernorSpec(args.budget, policy=args.eviction_policy)),
    ]
    rows = []
    failures: List[str] = []
    for algo, make_factory in factories:
        reference = None  # the ungoverned result multiset
        for tag, spec in [("none", None)] + budgets:
            label = f"{algo} b={tag}"
            with run_options(governor=spec):
                run = run_join_experiment(
                    make_factory(), workload, label=label, keep_items=True
                )
            multiset = run.sink.result_multiset()
            spills = run.join.counters().get("governor.spills", 0)
            if reference is None:
                reference = multiset
                equivalent = "-"
            else:
                match = multiset == reference
                equivalent = "ok" if match else "MISMATCH"
                if not match:
                    failures.append(f"{label}: result multiset drifted "
                                    f"from the ungoverned run")
            rows.append([label, run.results, spills, equivalent,
                         round(run.duration_ms)])
            if spec is not None and not spec.unlimited and spills == 0:
                failures.append(f"{label}: tight budget never spilled")
    print(render_table(
        ["variant", "results", "spills", "equivalent", "finished (ms)"],
        rows,
    ))
    if failures:
        for failure in failures:
            log.error("memory smoke: %s", failure)
        if args.check:
            log.error("memory governor smoke FAILED")
            return 1
    elif args.check:
        print("memory governor smoke passed")
    return 0


def _add_skew_parser(sub) -> None:
    skew_cmd = sub.add_parser(
        "skew",
        help="skew-layer smoke: static vs adaptive buckets and sharded "
             "hot-key replication on one Zipf workload, with "
             "equivalence and counter checks",
        description="Runs one Zipf-keyed workload four ways — static "
                    "PJoin, adaptive split/coalesce buckets, sharded "
                    "with the stock hash router, and sharded with "
                    "hot-key replication — and verifies every variant "
                    "reproduces the static result multiset while the "
                    "skew machinery actually engages (the CI "
                    "skew-smoke gate).",
    )
    skew_cmd.add_argument("--tuples", type=int, default=3000,
                          help="tuples per stream")
    skew_cmd.add_argument("--zipf", type=float, default=1.4,
                          help="Zipf exponent of the join-key draw")
    skew_cmd.add_argument("--active-values", type=int, default=48,
                          help="active join-value window size")
    skew_cmd.add_argument("--spacing-a", type=float, default=40.0,
                          help="stream A punctuation spacing (tuples)")
    skew_cmd.add_argument("--spacing-b", type=float, default=40.0,
                          help="stream B punctuation spacing (tuples)")
    skew_cmd.add_argument("--seed", type=int, default=7)
    skew_cmd.add_argument("--shards", type=int, default=4,
                          help="shard count for the sharded variants")
    skew_cmd.add_argument("--partitions", type=int, default=8,
                          help="base hash partitions per join side")
    skew_cmd.add_argument(
        "--check", type=Path, default=None, metavar="DIR",
        help="diff the counter summary against DIR/skew_smoke.json and "
             "fail on drift or any failed gate (the CI skew-smoke gate)",
    )
    skew_cmd.set_defaults(func=cmd_skew)


def cmd_skew(args: argparse.Namespace) -> int:
    from repro.skew import SkewSpec

    if args.shards < 2:
        log.error("--shards must be >= 2 (hot keys replicate across shards)")
        return 2
    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        active_values=args.active_values,
        zipf_exponent=args.zipf,
        seed=args.seed,
    )
    config = PJoinConfig(n_partitions=args.partitions, purge_threshold=1)
    variants = [
        ("static", RunOptions()),
        ("adaptive", RunOptions(skew=SkewSpec())),
        ("sharded static", RunOptions(shards=args.shards)),
        ("sharded hot-key", RunOptions(
            shards=args.shards, skew=SkewSpec(hot_keys=True, adaptive=False)
        )),
    ]
    runs = []
    for label, options in variants:
        with run_options(options):
            runs.append(run_join_experiment(
                pjoin_factory(config), workload, label=label, keep_items=True
            ))
    reference = runs[0].sink.result_multiset()
    failures: List[str] = []
    rows = []
    for run in runs:
        if run is runs[0]:
            equivalent = "-"
        else:
            match = run.sink.result_multiset() == reference
            equivalent = "ok" if match else "MISMATCH"
            if not match:
                failures.append(f"{run.label}: result multiset drifted "
                                f"from the static run")
        rows.append([run.label, run.results, equivalent,
                     round(run.duration_ms)])
    print(render_table(["variant", "results", "equivalent", "finished (ms)"],
                       rows))
    adaptive_counters = runs[1].join.counters()
    router_counters = runs[3].join.router.counters()
    if not adaptive_counters.get("skew.splits"):
        failures.append("adaptive: no bucket ever split")
    if not router_counters.get("hot_activations"):
        failures.append("sharded hot-key: no key ever activated")
    if not router_counters.get("replica_copies"):
        failures.append("sharded hot-key: no build history was replicated")
    summary = {"results": runs[0].results}
    for key in ("splits", "coalesces", "entries_moved", "leaf_partitions"):
        summary[f"adaptive.{key}"] = adaptive_counters[f"skew.{key}"]
    for key in ("hot_activations", "hot_deactivations", "replica_copies",
                "hot_spread_tuples", "hot_broadcast_tuples",
                "hot_broadcast_punctuations"):
        summary[f"hotkey.{key}"] = router_counters[key]
    summary["hotkey.replica_inserts"] = (
        runs[3].join.counters().get("replica_inserts", 0)
    )
    print(render_table(
        ["counter (skew smoke)", "value"],
        [[key, value] for key, value in summary.items()],
    ))
    drifted = False
    if args.check is not None:
        golden_path = args.check / "skew_smoke.json"
        if not golden_path.exists():
            log.error("missing golden: %s", golden_path)
            drifted = True
        else:
            golden = json.loads(golden_path.read_text())
            if golden != summary:
                drifted = True
                for key in sorted(set(golden) | set(summary)):
                    expected, got = golden.get(key), summary.get(key)
                    if expected != got:
                        log.error("  drift in skew_smoke.%s: golden=%r run=%r",
                                  key, expected, got)
    for failure in failures:
        log.error("skew smoke: %s", failure)
    if drifted:
        log.error("skew counter drift against %s", args.check)
    if args.check is not None:
        if failures or drifted:
            log.error("skew smoke FAILED")
            return 1
        print("skew smoke passed")
    return 0


def _int_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"shard counts must be >= 1: {text!r}")
    return values


def cmd_shard(args: argparse.Namespace) -> int:
    from repro.shard.backend import run_sharded_multiprocess

    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        seed=args.seed,
    )
    config = PJoinConfig(
        purge_threshold=args.purge_threshold,
        propagation_mode="push_count" if args.propagate else "off",
    )
    spec = _governor_spec(args)
    with run_options(governor=spec):
        base = run_join_experiment(
            pjoin_factory(config), workload, label="unsharded", keep_items=True
        )
    base_results = base.sink.result_multiset()
    base_puncts: dict = {}
    for punct in base.sink.punctuations:
        key = punct.patterns[0]
        base_puncts[key] = base_puncts.get(key, 0) + 1

    rows = [["unsharded", "sim", base.results, base.punctuations_out,
             "-", round(base.duration_ms)]]
    backends = ("sim", "mp") if args.backend == "both" else (args.backend,)
    all_match = True
    for k in args.shards:
        for backend in backends:
            if backend == "sim":
                with run_options(shards=k, governor=spec):
                    run = run_join_experiment(
                        pjoin_factory(config), workload,
                        label=f"sharded-K{k}", keep_items=True,
                    )
                results, punct_count = run.results, run.punctuations_out
                result_ms = run.sink.result_multiset()
                punct_ms: dict = {}
                for punct in run.sink.punctuations:
                    key = punct.patterns[0]
                    punct_ms[key] = punct_ms.get(key, 0) + 1
                duration = round(run.duration_ms)
            else:
                outcome = run_sharded_multiprocess(
                    workload, k, config=config, governor=spec
                )
                results, punct_count = (
                    outcome.result_count, len(outcome.punctuations)
                )
                result_ms = outcome.result_multiset()
                punct_ms = outcome.punctuation_multiset()
                duration = round(outcome.virtual_now)
            match = result_ms == base_results and punct_ms == base_puncts
            all_match = all_match and match
            rows.append([f"K={k}", backend, results, punct_count,
                         "ok" if match else "MISMATCH", duration])
    if args.crash is not None:
        from repro.checkpoint.recovery import CrashSpec, run_sharded_resilient

        try:
            shard_str, after_str = args.crash.split("@", 1)
            crash = CrashSpec(int(shard_str), int(after_str))
        except (ValueError, RecoveryError) as exc:
            log.error("malformed --crash spec %r (expected SHARD@N): %s",
                      args.crash, exc)
            return 2
        for k in args.shards:
            if not 0 <= crash.shard < k:
                continue  # this shard count cannot host the crashed worker
            outcome = run_sharded_resilient(
                workload, k, config=config, keep_items=True, governor=spec,
                checkpoint_every=args.checkpoint_every, crash=crash,
            )
            match = (outcome.result_multiset() == base_results
                     and outcome.punctuation_multiset() == base_puncts)
            all_match = all_match and match
            rows.append([f"K={k}", "mp+crash", outcome.result_count,
                         len(outcome.punctuations),
                         "ok" if match else "MISMATCH",
                         round(outcome.virtual_now)])
    if args.rescale is not None:
        from repro.checkpoint.rescale import RescalePlan, run_sharded_rescale

        spec_str = args.rescale
        if spec_str.endswith("@mid"):
            spec_str = spec_str[: -len("mid")] + str(workload.end_time / 2)
        try:
            rescale = RescalePlan.parse(spec_str)
        except RecoveryError as exc:
            log.error("bad --rescale spec %r: %s", args.rescale, exc)
            return 2
        outcome = run_sharded_rescale(
            workload, rescale, config=config, keep_items=True, governor=spec,
            checkpoint_every=args.checkpoint_every,
        )
        match = (outcome.result_multiset() == base_results
                 and outcome.punctuation_multiset() == base_puncts)
        all_match = all_match and match
        rows.append([f"K={rescale.n_before}->{rescale.n_after}", "rescale",
                     outcome.result_count, len(outcome.punctuations),
                     "ok" if match else "MISMATCH",
                     round(outcome.virtual_now)])
    print(render_table(
        ["variant", "backend", "results", "puncts out", "equivalent",
         "finished (ms)"],
        rows,
    ))
    if args.check and not all_match:
        log.error("sharded equivalence check FAILED")
        return 1
    if args.check:
        print("sharded equivalence check passed")
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """Flags for the ad-hoc PJoin workload (used when no preset is named)."""
    parser.add_argument("--tuples", type=int, default=500)
    parser.add_argument("--spacing-a", type=float, default=10.0)
    parser.add_argument("--spacing-b", type=float, default=10.0)
    parser.add_argument("--purge-threshold", type=int, default=5)
    parser.add_argument("--memory-threshold", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-policy", choices=sorted(FAULT_POLICIES), default="strict",
        help="punctuation-contract fault policy for the ad-hoc PJoin "
             "(quarantine adds dead-letter counters to the registry)",
    )


def _add_export_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chrome", type=Path, default=None, metavar="PATH",
        help="write the span trace as Chrome trace-event JSON "
             "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None, metavar="PATH",
        help="write the raw trace events as JSON lines",
    )
    parser.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="write the run manifest(s) as JSON "
             "(diff two with tools/compare_runs.py)",
    )


def _add_trace_parser(sub) -> None:
    trace_cmd = sub.add_parser(
        "trace",
        help="run a traced PJoin workload or experiment preset and print "
             "the component timeline (purges, relocations, disk joins, "
             "propagations)",
    )
    trace_cmd.add_argument(
        "target", nargs="?", default=None,
        help="optional experiment preset to trace (e.g. figure8; "
             "see 'repro list'); omit to trace an ad-hoc PJoin workload",
    )
    trace_cmd.add_argument(
        "--scale", type=float, default=0.1,
        help="workload scale factor for preset targets (default 0.1)",
    )
    _add_workload_args(trace_cmd)
    trace_cmd.add_argument("--max-events", type=int, default=40,
                           help="timeline lines to print")
    _add_export_args(trace_cmd)
    trace_cmd.set_defaults(func=cmd_trace)


def _add_metrics_parser(sub) -> None:
    metrics_cmd = sub.add_parser(
        "metrics",
        help="run a workload or experiment preset and print the "
             "per-operator counter registries from its run manifest",
    )
    metrics_cmd.add_argument(
        "target", nargs="?", default=None,
        help="optional experiment preset (e.g. figure8); omit for an "
             "ad-hoc PJoin workload",
    )
    metrics_cmd.add_argument(
        "--scale", type=float, default=0.1,
        help="workload scale factor for preset targets (default 0.1)",
    )
    _add_workload_args(metrics_cmd)
    metrics_cmd.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="also write the run manifest(s) as JSON",
    )
    metrics_cmd.set_defaults(func=cmd_metrics)


def _add_chaos_parser(sub) -> None:
    chaos_cmd = sub.add_parser(
        "chaos",
        help="run deterministic fault-injection scenarios and print "
             "their resilience counter summaries",
        description="Chaos harness: each preset composes seeded faults "
                    "(contract violations, disorder, duplicates, disk "
                    "faults, stalls) into one deterministic run; same "
                    "preset + seed always yields identical counters.",
    )
    chaos_cmd.add_argument(
        "names", nargs="*",
        help=f"scenario presets ({', '.join(sorted(CHAOS_SCENARIOS))}); "
             "omit with --all to run every preset",
    )
    chaos_cmd.add_argument(
        "--all", action="store_true", help="run every chaos preset"
    )
    chaos_cmd.add_argument(
        "--policy", choices=sorted(FAULT_POLICIES), default=QUARANTINE,
        help="fault policy for the join under chaos (default quarantine; "
             "strict will raise on scenarios that inject violations)",
    )
    chaos_cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    chaos_cmd.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="write the run manifest(s), resilience section included",
    )
    chaos_cmd.add_argument(
        "--check", type=Path, default=None, metavar="DIR",
        help="diff each summary against DIR/chaos_<name>.json and fail "
             "on any counter drift (the CI chaos-smoke gate)",
    )
    chaos_cmd.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="run scenarios across N worker processes (each scenario is "
             "deterministic, so counters are identical to a serial run)",
    )
    chaos_cmd.set_defaults(func=cmd_chaos)


def _add_bench_parser(sub) -> None:
    bench_cmd = sub.add_parser(
        "bench",
        help="run the wall-clock benchmark-regression harness and write "
             "a BENCH_<rev>.json report",
        description="Runs pinned paper-scale workloads, measures wall "
                    "seconds / events per second / peak RSS, writes a "
                    "BENCH_<rev>.json report, and compares against the "
                    "committed baseline (benchmarks/bench_baseline.json).",
    )
    # Lazy import keeps `repro --help` cheap; the parser args live with
    # the harness so tools/bench.py shares them.
    from repro.perf.bench import add_bench_args, cmd_bench

    add_bench_args(bench_cmd)
    bench_cmd.set_defaults(func=cmd_bench)


def _add_profile_parser(sub) -> None:
    profile_cmd = sub.add_parser(
        "profile",
        help="attribute hot-path wall time to feature layers (core vs "
             "obs vs resilience vs governor vs shard) with latency "
             "histograms and flame-graph exports",
        description="Runs a pinned profiling preset with scoped timers "
                    "shadowing the hot-path callables, prints the "
                    "per-layer overhead table and virtual-time latency "
                    "histograms (result latency, purge lag, probe "
                    "cost), and optionally the unprofiled on/off "
                    "feature grid (--grid), collapsed-stack/speedscope "
                    "exports, or the CI profiling contract (--check).",
    )
    # Lazy import keeps `repro --help` cheap; the parser args live with
    # the runner so `python -m repro.profiling.runner` shares them.
    from repro.profiling.runner import add_profile_args, cmd_profile

    add_profile_args(profile_cmd)
    profile_cmd.set_defaults(func=cmd_profile)


def cmd_chaos(args: argparse.Namespace) -> int:
    names: List[str] = list(CHAOS_SCENARIOS) if args.all else args.names
    if not names:
        log.error("nothing to run: name scenarios or pass --all")
        return 2
    unknown = [n for n in names if n not in CHAOS_SCENARIOS]
    if unknown:
        log.error("unknown chaos scenarios: %s; presets: %s",
                  unknown, sorted(CHAOS_SCENARIOS))
        return 2
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        from repro.perf.parallel import ParallelSweepRunner

        runs = ParallelSweepRunner(jobs).run_chaos_scenarios(
            names, policy=args.policy, seed=args.seed
        )
    else:
        runs = [
            run_chaos(name, policy=args.policy, seed=args.seed) for name in names
        ]
    drifted = []
    for name, run in zip(names, runs):
        print(f"{run.scenario.name}: {run.scenario.description}")
        rows = [[key, value] for key, value in run.summary.items()]
        print(render_table([f"counter ({run.manifest['label']})", "value"],
                           rows))
        if run.join.dead_letters:
            print(f"dead-letter store: {len(run.join.dead_letters)} tuples "
                  f"({run.join.dead_letters.counters()})")
        print()
        if args.check is not None:
            golden_path = args.check / f"chaos_{name}.json"
            if not golden_path.exists():
                log.error("missing golden: %s", golden_path)
                drifted.append(name)
                continue
            golden = json.loads(golden_path.read_text())
            if golden != run.summary:
                drifted.append(name)
                keys = sorted(set(golden) | set(run.summary))
                for key in keys:
                    expected, got = golden.get(key), run.summary.get(key)
                    if expected != got:
                        log.error("  drift in %s.%s: golden=%r run=%r",
                                  name, key, expected, got)
    if args.manifest is not None:
        _write_manifests(runs, args.manifest)
    if drifted:
        log.error("chaos counter drift: %s", drifted)
        return 1
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [name, (fn.__doc__ or "").strip().splitlines()[0]]
        for name, fn in ALL_EXPERIMENTS.items()
    ]
    print(render_table(["experiment", "description"], rows))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    names: List[str] = list(ALL_EXPERIMENTS) if args.all else args.names
    if not names:
        log.error("nothing to run: name experiments or pass --all")
        return 2
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        log.error("unknown experiments: %s; try 'repro list'", unknown)
        return 2
    runner = None
    if args.jobs > 1:
        from repro.perf.parallel import ParallelSweepRunner

        runner = ParallelSweepRunner(args.jobs)
    failures = []
    export_dir = args.export
    if export_dir is not None:
        from repro.experiments.export import save_figure_json

        export_dir.mkdir(parents=True, exist_ok=True)
    with run_options(_run_options(args)):
        for name in names:
            if runner is not None:
                result = runner.run_experiment(name, scale=args.scale)
            else:
                result = ALL_EXPERIMENTS[name](scale=args.scale)
            print(result.render())
            print()
            if export_dir is not None:
                save_figure_json(result, export_dir / f"{name}.json")
            if not result.all_passed:
                failures.append(name)
    if failures:
        log.error("shape-check failures: %s", failures)
        return 1
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        seed=args.seed,
    )
    with run_options(_run_options(args)):
        pjoin = run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=args.purge_threshold)),
            workload,
            label=f"PJoin-{args.purge_threshold}",
        )
        xjoin = run_join_experiment(xjoin_factory(), workload, label="XJoin")
    rows = []
    for run in (pjoin, xjoin):
        summary = run.summary()
        rows.append(
            [
                summary["label"],
                summary["results"],
                round(summary["mean_state"], 1),
                summary["max_state"],
                round(summary["rate_second_half"], 2),
                round(summary["duration_ms"]),
            ]
        )
    print(
        render_table(
            ["variant", "results", "state mean", "state max",
             "late rate (t/ms)", "finished (ms)"],
            rows,
        )
    )
    return 0


def _traced_runs(args: argparse.Namespace, tracer: Tracer):
    """Run the requested preset or ad-hoc workload under *tracer*.

    Returns the list of :class:`ExperimentRun` objects, or ``None`` when
    the preset name is unknown (an error was already printed).
    """
    if args.target is not None:
        if args.target not in ALL_EXPERIMENTS:
            log.error("unknown experiment: %r; try 'repro list'", args.target)
            return None
        with run_options(tracer=tracer):
            result = ALL_EXPERIMENTS[args.target](scale=args.scale)
        return list(result.runs)
    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        seed=args.seed,
    )
    config = PJoinConfig(
        purge_threshold=args.purge_threshold,
        memory_threshold=args.memory_threshold,
        propagation_mode="push_count",
        propagate_count_threshold=max(2, args.purge_threshold),
        fault_policy=getattr(args, "fault_policy", "strict"),
    )
    with run_options(tracer=tracer):
        run = run_join_experiment(
            pjoin_factory(config),
            workload,
            label=f"PJoin-{args.purge_threshold}",
            keep_items=False,
        )
    return [run]


def _write_manifests(runs, path: Path) -> None:
    """Write one manifest (single run) or a ``{label: manifest}`` map."""
    if len(runs) == 1:
        payload = runs[0].manifest
    else:
        payload = {run.label: run.manifest for run in runs}
    path.write_text(json.dumps(payload, indent=1))
    print(f"wrote manifest: {path}")


def cmd_trace(args: argparse.Namespace) -> int:
    tracer = Tracer()
    runs = _traced_runs(args, tracer)
    if runs is None:
        return 2
    print(render_timeline(tracer, max_events=args.max_events))
    print()
    print(render_table(
        ["action", "count"], sorted(tracer.counts().items())
    ))
    for run in runs:
        stats = getattr(run.join, "stats", None)
        if stats is None:
            continue
        print()
        rows = [[key, value] for key, value in stats().items()
                if not isinstance(value, (dict, tuple))]
        print(render_table([f"join statistic ({run.label})", "value"], rows))
    if args.chrome is not None:
        save_chrome_trace(tracer, args.chrome)
        print(f"\nwrote Chrome trace: {args.chrome}")
    if args.jsonl is not None:
        save_jsonl(tracer, args.jsonl)
        print(f"wrote JSONL trace: {args.jsonl}")
    if args.manifest is not None:
        _write_manifests(runs, args.manifest)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    runs = _traced_runs(args, Tracer())
    if runs is None:
        return 2
    for run in runs:
        rows = []
        for op_name, counters in run.manifest.get("counters", {}).items():
            for counter, value in counters.items():
                rows.append([op_name, counter,
                             round(value, 3) if isinstance(value, float)
                             else value])
        print(render_table(
            [f"operator ({run.label})", "counter", "value"], rows
        ))
        print()
    if args.manifest is not None:
        _write_manifests(runs, args.manifest)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(
        level=args.log_level, json_lines=args.log_json, quiet=args.quiet
    )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
