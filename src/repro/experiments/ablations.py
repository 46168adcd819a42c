"""Ablation experiments for PJoin's design choices (DESIGN.md A1–A5).

These go beyond the paper's figures and probe the alternatives its
Sections 3.4–3.5 discuss qualitatively: eager vs lazy index building,
the three propagation modes, the purge-threshold optimum, the
on-the-fly drop, and the memory-threshold/disk trade-off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.experiments.figures import Check, FigureResult
from repro.experiments.harness import (
    ExperimentRun,
    pjoin_factory,
    run_join_experiment,
    xjoin_factory,
)
from repro.workloads.generator import generate_workload


def _scaled(n: int, scale: float) -> int:
    return max(500, int(n * scale))


def _summed(run: ExperimentRun, read: Callable[[Any], int]) -> int:
    """*read* of the run's join, summed over its shards when sharded."""
    shards = getattr(run.join, "shards", None)
    return sum(map(read, shards)) if shards is not None else read(run.join)


def ablation_index_building(scale: float = 1.0, seed: int = 21) -> FigureResult:
    """A1 — eager vs lazy index building.

    Both configurations propagate on a count threshold; eager building
    pays a state scan per punctuation but keeps the index current, so
    punctuations are detected propagable at the earliest propagation
    run.  We compare punctuation output progress and total run time.
    """
    workload = generate_workload(
        n_tuples_per_stream=_scaled(8_000, scale),
        punct_spacing_a=20,
        punct_spacing_b=20,
        aligned_punctuations=True,
        seed=seed,
    )
    runs = []
    for mode in ("eager", "lazy"):
        config = PJoinConfig(
            purge_threshold=1,
            index_building=mode,
            propagation_mode="push_count",
            propagate_count_threshold=20,
        )
        runs.append(
            run_join_experiment(
                pjoin_factory(config), workload, label=f"index-{mode}"
            )
        )
    eager, lazy = runs
    eager_builds, lazy_builds = (
        _summed(run, lambda join: join.sides[0].index.build_runs)
        for run in runs
    )
    checks = [
        Check(
            "both strategies propagate the same punctuations in the end "
            f"({eager.punctuations_out} vs {lazy.punctuations_out})",
            eager.punctuations_out == lazy.punctuations_out,
        ),
        Check(
            "lazy building batches the scans: fewer index-build runs "
            f"({lazy_builds} vs {eager_builds})",
            lazy_builds < eager_builds,
        ),
        Check(
            "lazy building finishes no later than eager "
            f"({lazy.duration_ms:.0f} <= {eager.duration_ms:.0f} ms)",
            lazy.duration_ms <= eager.duration_ms,
        ),
    ]
    return FigureResult(
        "Ablation A1",
        "Eager vs lazy punctuation index building",
        runs,
        checks,
    )


def ablation_propagation_mode(scale: float = 1.0, seed: int = 23) -> FigureResult:
    """A2 — push(count) vs push(time) vs pull propagation cadence."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(8_000, scale),
        punct_spacing_a=20,
        punct_spacing_b=20,
        aligned_punctuations=True,
        seed=seed,
    )
    runs: List[ExperimentRun] = []
    count_cfg = PJoinConfig(
        purge_threshold=1,
        propagation_mode="push_count",
        propagate_count_threshold=25,
    )
    runs.append(
        run_join_experiment(pjoin_factory(count_cfg), workload, label="push-count")
    )
    time_cfg = PJoinConfig(
        purge_threshold=1,
        propagation_mode="push_time",
        propagate_time_threshold_ms=1_000.0,
    )
    runs.append(
        run_join_experiment(pjoin_factory(time_cfg), workload, label="push-time")
    )

    # Pull mode: a simulated downstream operator requests punctuations
    # every 2000 virtual ms.
    def pull_factory(plan, wl):
        config = PJoinConfig(purge_threshold=1, propagation_mode="pull")
        join = PJoin(
            plan.engine,
            plan.cost_model,
            wl.schemas[0],
            wl.schemas[1],
            wl.join_fields[0],
            wl.join_fields[1],
            config=config,
        )

        def request() -> None:
            if not join.finished:
                join.request_propagation(requester="downstream-groupby")
                plan.engine.schedule(2_000.0, request)

        plan.engine.schedule(2_000.0, request)
        return join

    runs.append(run_join_experiment(pull_factory, workload, label="pull-2000ms"))
    outs = [run.punctuations_out for run in runs]
    count, by_time, pull = (
        _summed(run, lambda join: join.propagation_runs) for run in runs
    )
    checks = [
        Check(
            f"every mode eventually propagates all punctuations {outs}",
            len(set(outs)) == 1 and outs[0] > 0,
        ),
        Check(
            "push-count reacts most often (most propagation runs): "
            f"{count} vs {by_time} (time), {pull} (pull)",
            count >= by_time and count >= pull,
        ),
    ]
    return FigureResult(
        "Ablation A2",
        "Propagation modes: push by count, push by time, pull",
        runs,
        checks,
    )


def ablation_purge_sweep(scale: float = 1.0, seed: int = 9) -> FigureResult:
    """A3 — fine-grained purge-threshold sweep around the optimum."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=seed,
    )
    thresholds = (1, 5, 20, 50, 100, 200, 400, 800)
    runs = [
        run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=n)),
            workload,
            label=f"PJoin-{n}",
        )
        for n in thresholds
    ]
    durations: Dict[int, float] = {
        n: run.duration_ms for n, run in zip(thresholds, runs)
    }
    best = min(durations, key=durations.get)
    checks = [
        Check(
            f"the optimum threshold is interior (best = {best}, "
            f"finish {durations[best]:.0f} ms)",
            best not in (thresholds[0], thresholds[-1]),
        ),
        Check(
            "memory grows monotonically with the threshold",
            all(
                runs[i].mean_state() <= runs[i + 1].mean_state() * 1.05
                for i in range(len(runs) - 1)
            ),
        ),
    ]
    return FigureResult(
        "Ablation A3",
        "Purge-threshold sweep (output-rate optimum location)",
        runs,
        checks,
    )


def ablation_on_the_fly_drop(scale: float = 1.0, seed: int = 13) -> FigureResult:
    """A4 — on-the-fly drop on/off under asymmetric punctuations."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(8_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=40,
        seed=seed,
    )
    # Lazy purge makes the contrast visible: without on-the-fly drop,
    # already-dead B tuples sit in the state until the next purge run.
    on = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=50, on_the_fly_drop=True)),
        workload,
        label="drop-on",
    )
    off = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=50, on_the_fly_drop=False)),
        workload,
        label="drop-off",
    )
    b_on = on.series["state_b"].time_weighted_mean()
    b_off = off.series["state_b"].time_weighted_mean()
    dropped = _summed(on, lambda join: join.tuples_dropped_on_fly)
    checks = [
        Check(
            "both settings produce the same number of results "
            f"({on.results} vs {off.results})",
            on.results == off.results,
        ),
        Check(
            "dropping keeps the B state much smaller "
            f"(mean {b_on:.0f} vs {b_off:.0f} without dropping)",
            b_on < 0.5 * max(b_off, 1.0),
        ),
        Check(
            f"drops actually happened ({dropped})",
            dropped > 0,
        ),
    ]
    return FigureResult(
        "Ablation A4",
        "On-the-fly drop on/off (A=10, B=40 t/p)",
        [on, off],
        checks,
    )


def ablation_memory_threshold(scale: float = 1.0, seed: int = 5) -> FigureResult:
    """A5 — disk traffic under a tight memory threshold, PJoin vs XJoin."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(6_000, scale),
        punct_spacing_a=20,
        punct_spacing_b=20,
        seed=seed,
    )
    threshold = max(200, _scaled(6_000, scale) // 6)
    pjoin = run_join_experiment(
        pjoin_factory(
            PJoinConfig(purge_threshold=1, memory_threshold=threshold)
        ),
        workload,
        label=f"PJoin-1 (mem {threshold})",
    )
    xjoin = run_join_experiment(
        xjoin_factory(memory_threshold=threshold),
        workload,
        label=f"XJoin (mem {threshold})",
    )
    pjoin_spilled, xjoin_spilled = (
        _summed(run, lambda join: join.disk.tuples_written)
        for run in (pjoin, xjoin)
    )
    checks = [
        Check(
            "both produce the same result count "
            f"({pjoin.results} vs {xjoin.results})",
            pjoin.results == xjoin.results,
        ),
        Check(
            "purging keeps PJoin under the threshold: far fewer tuples "
            f"spilled ({pjoin_spilled} vs {xjoin_spilled})",
            pjoin_spilled < 0.5 * max(xjoin_spilled, 1),
        ),
    ]
    return FigureResult(
        "Ablation A5",
        "Disk traffic under a tight memory threshold",
        [pjoin, xjoin],
        checks,
    )


def ablation_adaptive_purge(scale: float = 1.0, seed: int = 9) -> FigureResult:
    """A6 — adaptive purge-threshold control vs fixed thresholds.

    The paper's Section 6 names "designing a correlated purge
    threshold" as future work; :class:`~repro.core.adaptive.
    AdaptivePurgeController` closes that loop.  Starting from the two
    worst fixed settings (eager, and effectively-never), the controller
    should finish close to the tuned fixed threshold.
    """
    from repro.core.adaptive import AdaptivePurgeController

    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=seed,
    )

    def adaptive_factory(start_threshold):
        def build(plan, wl):
            join = PJoin(
                plan.engine,
                plan.cost_model,
                wl.schemas[0],
                wl.schemas[1],
                wl.join_fields[0],
                wl.join_fields[1],
                config=PJoinConfig(purge_threshold=start_threshold),
            )
            AdaptivePurgeController(join).start()
            return join

        return build

    runs = [
        run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=1)), workload,
            label="fixed-1",
        ),
        run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=100)), workload,
            label="fixed-100 (tuned)",
        ),
        run_join_experiment(
            adaptive_factory(1), workload, label="adaptive (from 1)"
        ),
        run_join_experiment(
            adaptive_factory(1024), workload, label="adaptive (from 1024)"
        ),
    ]
    fixed_eager, fixed_tuned, adapt_lo, adapt_hi = runs
    checks = [
        Check(
            "adaptive control beats the worst fixed setting it started from "
            f"({adapt_lo.duration_ms:.0f} < {fixed_eager.duration_ms:.0f} ms)",
            adapt_lo.duration_ms < fixed_eager.duration_ms,
        ),
        Check(
            "and lands within 1.5x of the tuned fixed threshold "
            f"({adapt_lo.duration_ms:.0f} and {adapt_hi.duration_ms:.0f} "
            f"vs {fixed_tuned.duration_ms:.0f} ms)",
            adapt_lo.duration_ms < 1.5 * fixed_tuned.duration_ms
            and adapt_hi.duration_ms < 1.5 * fixed_tuned.duration_ms,
        ),
        Check(
            "all variants produce identical results",
            len({run.results for run in runs}) == 1,
        ),
    ]
    return FigureResult(
        "Ablation A6",
        "Adaptive purge-threshold control vs fixed thresholds",
        runs,
        checks,
    )


def ablation_reactive_disk_join(scale: float = 1.0, seed: int = 5) -> FigureResult:
    """A7 — the reactive disk join's benefit on bursty streams.

    XJoin's second stage exists to exploit lulls: with a tight memory
    threshold and a bursty arrival pattern, a join that probes its disk
    portions during silences delivers left-over results long before
    end-of-stream, while one that waits for the clean-up stage delays
    them all to the very end.
    """
    from repro.sim.costs import CostModel
    from repro.workloads.bursty import make_bursty

    smooth = generate_workload(
        n_tuples_per_stream=_scaled(4_000, scale),
        punct_spacing_a=None,
        punct_spacing_b=None,
        active_values=40,
        seed=seed,
    )
    workload = make_bursty(smooth, burst_ms=150.0, silence_ms=450.0, compress=0.25)
    threshold = max(100, _scaled(4_000, scale) // 8)
    # A light cost model: the join keeps up with each burst, so the
    # silences are genuine lulls in which the reactive stage can work.
    cost_model = CostModel().scaled(0.05)
    reactive = run_join_experiment(
        xjoin_factory(memory_threshold=threshold),
        workload,
        label="XJoin reactive",
        cost_model=cost_model,
    )
    # An activation threshold longer than any silence disables stage 2.
    def lazy_factory(plan, wl):
        from repro.operators.xjoin import XJoin

        return XJoin(
            plan.engine, plan.cost_model,
            wl.schemas[0], wl.schemas[1], "key", "key",
            memory_threshold=threshold, disk_join_idle_ms=10_000_000.0,
        )

    lazy = run_join_experiment(
        lazy_factory, workload, label="XJoin no stage 2", cost_model=cost_model
    )
    arrivals_end = workload.end_time
    reactive_early = reactive.output_series.value_at(arrivals_end)
    lazy_early = lazy.output_series.value_at(arrivals_end)
    stage2_runs = _summed(reactive, lambda join: join.stage2_runs)
    checks = [
        Check(
            "lulls actually trigger the reactive stage "
            f"({stage2_runs} stage-2 runs)",
            stage2_runs > 0,
        ),
        Check(
            "both variants produce the same results "
            f"({reactive.results} vs {lazy.results})",
            reactive.results == lazy.results,
        ),
        Check(
            "the reactive join delivers more results before the streams end "
            f"({reactive_early:.0f} vs {lazy_early:.0f} of {reactive.results})",
            reactive_early > lazy_early,
        ),
    ]
    return FigureResult(
        "Ablation A7",
        "Reactive disk join during stream lulls (bursty arrivals)",
        [reactive, lazy],
        checks,
    )


ALL_ABLATIONS = {
    "ablation_index_building": ablation_index_building,
    "ablation_propagation_mode": ablation_propagation_mode,
    "ablation_purge_sweep": ablation_purge_sweep,
    "ablation_on_the_fly_drop": ablation_on_the_fly_drop,
    "ablation_memory_threshold": ablation_memory_threshold,
    "ablation_adaptive_purge": ablation_adaptive_purge,
    "ablation_reactive_disk_join": ablation_reactive_disk_join,
}


def run_all(scale: float = 1.0, jobs: int = 1) -> Dict[str, FigureResult]:
    """Run every ablation preset.

    ``jobs > 1`` fans each ablation's sweep points out over worker
    processes via :class:`~repro.perf.parallel.ParallelSweepRunner`;
    results are byte-identical to a serial run (up to the ``jobs``
    manifest stamp).
    """
    if jobs > 1:
        from repro.perf.parallel import ParallelSweepRunner

        runner = ParallelSweepRunner(jobs)
        return {
            name: runner.run_experiment(name, scale) for name in ALL_ABLATIONS
        }
    return {name: fn(scale=scale) for name, fn in ALL_ABLATIONS.items()}
