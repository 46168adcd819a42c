"""One preset per figure of the paper's experimental study (Section 4).

Each ``figure*`` function runs the experiment with the paper's
parameters (tuple inter-arrival 2 ms, many-to-many join, the figure's
punctuation inter-arrivals and purge thresholds), returns a
:class:`FigureResult` holding the runs, and attaches *shape checks* —
the qualitative claims the paper makes about that figure, evaluated
against the measured data.  ``pytest benchmarks/`` prints the tables;
``tests/experiments/`` asserts the checks at reduced scale.

Absolute numbers differ from the paper (its substrate was a Java engine
on a 2003 Pentium-IV; ours is a virtual-time cost model) but every
check below encodes the paper's qualitative conclusion for that figure.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple as PyTuple

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    ExperimentRun,
    pjoin_factory,
    run_join_experiment,
    run_options,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec, format_budget
from repro.metrics.report import render_ascii_chart, render_table
from repro.workloads.generator import generate_workload


class Check:
    """One qualitative claim of the paper, evaluated against a run."""

    __slots__ = ("description", "passed")

    def __init__(self, description: str, passed: bool) -> None:
        self.description = description
        self.passed = bool(passed)

    def __repr__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.description}"


class FigureResult:
    """All runs and checks of one reproduced figure."""

    def __init__(
        self,
        figure_id: str,
        title: str,
        runs: List[ExperimentRun],
        checks: List[Check],
        notes: str = "",
    ) -> None:
        self.figure_id = figure_id
        self.title = title
        self.runs = runs
        self.checks = checks
        self.notes = notes

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def run(self, label: str) -> ExperimentRun:
        for run in self.runs:
            if run.label == label:
                return run
        raise KeyError(f"{self.figure_id} has no run labelled {label!r}")

    def summary_table(self) -> str:
        headers = [
            "variant",
            "results",
            "state(mean)",
            "state(max)",
            "rate 1st half",
            "rate 2nd half",
            "punct out",
            "finished (ms)",
        ]
        rows = []
        for run in self.runs:
            s = run.summary()
            rows.append(
                [
                    s["label"],
                    s["results"],
                    round(s["mean_state"], 1),
                    s["max_state"],
                    round(s["rate_first_half"], 2),
                    round(s["rate_second_half"], 2),
                    s["punctuations_out"],
                    round(s["duration_ms"], 1),
                ]
            )
        return render_table(headers, rows)

    def render(self, chart_series: str = "state_total") -> str:
        """Full text report: table, chart of one series, check list."""
        parts = [f"{self.figure_id}: {self.title}"]
        if self.notes:
            parts.append(self.notes)
        parts.append(self.summary_table())
        series = {run.label: run.series[chart_series] for run in self.runs}
        parts.append(
            render_ascii_chart(series, title=f"{chart_series} over virtual time")
        )
        parts.append(
            "Shape checks:\n" + "\n".join(f"  {check!r}" for check in self.checks)
        )
        return "\n\n".join(parts)

    def __repr__(self) -> str:
        status = "all-pass" if self.all_passed else "HAS FAILURES"
        return f"FigureResult({self.figure_id}, runs={len(self.runs)}, {status})"


def _scaled(n: int, scale: float) -> int:
    return max(500, int(n * scale))


def _quarter_rates(run: ExperimentRun, n: int = 4) -> List[float]:
    out = run.output_series
    if len(out) < 2:
        return [0.0] * n
    t_last = out.times[-1]
    if t_last <= 0:
        return [0.0] * n
    rates = []
    for i in range(n):
        a, b = t_last * i / n, t_last * (i + 1) / n
        rates.append((out.value_at(b) - out.value_at(a)) / (b - a))
    return rates


# ---------------------------------------------------------------------------
# Section 4.1 — PJoin vs XJoin
# ---------------------------------------------------------------------------


def figure5(scale: float = 1.0, seed: int = 5) -> FigureResult:
    """Fig. 5 — PJoin-1 vs XJoin, join-state size over time (40 t/p).

    XJoin's state needs a few thousand tuples to dwarf PJoin's plateau,
    so the scale is floored at 0.25.
    """
    scale = max(scale, 0.25)
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=seed,
    )
    pjoin = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=1)), workload, label="PJoin-1"
    )
    xjoin = run_join_experiment(xjoin_factory(), workload, label="XJoin")
    checks = [
        Check(
            "PJoin's state is insignificant next to XJoin's (mean < 20%)",
            pjoin.mean_state() < 0.2 * xjoin.mean_state(),
        ),
        Check(
            "XJoin's state keeps growing (final well above PJoin's mean)",
            xjoin.state_series.last() > 3 * max(pjoin.mean_state(), 1.0),
        ),
        Check(
            "PJoin's state stays bounded (max < 4x its mean)",
            pjoin.max_state() < 4 * max(pjoin.mean_state(), 1.0),
        ),
    ]
    return FigureResult(
        "Figure 5",
        "PJoin vs XJoin, memory overhead (punct inter-arrival 40 t/p)",
        [pjoin, xjoin],
        checks,
    )


def figure6(scale: float = 1.0, seed: int = 6) -> FigureResult:
    """Fig. 6 — PJoin state size for punctuation inter-arrival 10/20/30."""
    runs = []
    for spacing in (10, 20, 30):
        workload = generate_workload(
            n_tuples_per_stream=_scaled(10_000, scale),
            punct_spacing_a=spacing,
            punct_spacing_b=spacing,
            seed=seed,
        )
        runs.append(
            run_join_experiment(
                pjoin_factory(PJoinConfig(purge_threshold=1)),
                workload,
                label=f"PJoin (punct {spacing} t/p)",
            )
        )
    means = [run.mean_state() for run in runs]
    checks = [
        Check(
            "average state grows with the punctuation inter-arrival "
            f"(means {means[0]:.0f} < {means[1]:.0f} < {means[2]:.0f})",
            means[0] < means[1] < means[2],
        )
    ]
    return FigureResult(
        "Figure 6",
        "PJoin state size vs punctuation inter-arrival (10/20/30 t/p)",
        runs,
        checks,
    )


def figure7(scale: float = 1.0, seed: int = 5) -> FigureResult:
    """Fig. 7 — tuple output rate over time, PJoin vs XJoin (40 t/p).

    This figure is about a *crossover*: XJoin's probing cost must grow
    past PJoin's purge overhead within the run, which takes a minimum
    stream length — so the scale is floored at 0.7.
    """
    scale = max(scale, 0.7)
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=seed,
    )
    pjoin = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=1)), workload, label="PJoin-1"
    )
    xjoin = run_join_experiment(xjoin_factory(), workload, label="XJoin")
    p_rates = _quarter_rates(pjoin)
    x_rates = _quarter_rates(xjoin)
    checks = [
        Check(
            "XJoin's output rate drops over time "
            f"(last quarter {x_rates[-1]:.1f} < 80% of its peak {max(x_rates):.1f})",
            x_rates[-1] < 0.8 * max(x_rates),
        ),
        Check(
            "PJoin maintains an almost steady output rate "
            f"(last quarter {p_rates[-1]:.1f} >= 80% of its peak {max(p_rates):.1f})",
            p_rates[-1] >= 0.8 * max(p_rates),
        ),
        Check(
            "PJoin delivers the full output no later than XJoin "
            f"({pjoin.duration_ms:.0f} <= {xjoin.duration_ms:.0f} ms)",
            pjoin.duration_ms <= xjoin.duration_ms,
        ),
    ]
    return FigureResult(
        "Figure 7",
        "Tuple output rate, PJoin vs XJoin (punct inter-arrival 40 t/p)",
        [pjoin, xjoin],
        checks,
    )


# ---------------------------------------------------------------------------
# Section 4.2 — purge strategies
# ---------------------------------------------------------------------------


def figure8(scale: float = 1.0, seed: int = 9) -> FigureResult:
    """Fig. 8 — eager vs lazy purge, memory overhead (10 t/p)."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=seed,
    )
    eager = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=1)), workload, label="PJoin-1"
    )
    lazy = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=10)), workload, label="PJoin-10"
    )
    checks = [
        Check(
            "eager purge minimises the join state "
            f"(mean {eager.mean_state():.0f} < lazy's {lazy.mean_state():.0f})",
            eager.mean_state() < lazy.mean_state(),
        ),
        Check(
            "lazy purge still keeps the state bounded (max < 10x eager's max)",
            lazy.max_state() < 10 * max(eager.max_state(), 1.0),
        ),
    ]
    return FigureResult(
        "Figure 8",
        "Eager vs lazy purge, memory overhead (punct inter-arrival 10 t/p)",
        [eager, lazy],
        checks,
    )


def figure9(scale: float = 1.0, seed: int = 9) -> FigureResult:
    """Fig. 9 — output over time for purge thresholds 1/100/400/800.

    Distinguishing thresholds 400 and 800 needs enough punctuations for
    both to actually fire, so the scale is floored at 0.35.
    """
    scale = max(scale, 0.35)
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=seed,
    )
    thresholds = (1, 100, 400, 800)
    runs = [
        run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=n)),
            workload,
            label=f"PJoin-{n}",
        )
        for n in thresholds
    ]
    d = {n: run.duration_ms for n, run in zip(thresholds, runs)}
    checks = [
        Check(
            "raising the threshold first raises the output rate "
            f"(PJoin-100 finishes in {d[100]:.0f} ms < PJoin-1's {d[1]:.0f} ms)",
            d[100] < d[1],
        ),
        Check(
            "beyond the optimum, probing cost wins: PJoin-400 is slower "
            f"than PJoin-100 ({d[400]:.0f} > {d[100]:.0f} ms)",
            d[400] > d[100],
        ),
        Check(
            f"and PJoin-800 is slower still ({d[800]:.0f} > {d[400]:.0f} ms)",
            d[800] > d[400],
        ),
    ]
    return FigureResult(
        "Figure 9",
        "Eager vs lazy purge, tuple output (punct inter-arrival 10 t/p)",
        runs,
        checks,
    )


# ---------------------------------------------------------------------------
# Section 4.3 — asymmetric punctuation inter-arrival
# ---------------------------------------------------------------------------


def _asymmetric_runs(
    scale: float, seed: int, spacings_b: PyTuple[int, ...]
) -> List[ExperimentRun]:
    runs = []
    for spacing_b in spacings_b:
        workload = generate_workload(
            n_tuples_per_stream=_scaled(8_000, scale),
            punct_spacing_a=10,
            punct_spacing_b=spacing_b,
            seed=seed,
        )
        runs.append(
            run_join_experiment(
                pjoin_factory(PJoinConfig(purge_threshold=1)),
                workload,
                label=f"A=10, B={spacing_b}",
            )
        )
    return runs


def figure10(scale: float = 1.0, seed: int = 13) -> FigureResult:
    """Fig. 10 — asymmetric punctuation rates, state requirement."""
    runs = _asymmetric_runs(scale, seed, (10, 20, 40))
    means = [run.mean_state() for run in runs]
    state_a_40 = runs[2].series["state_a"].time_weighted_mean()
    state_b_40 = runs[2].series["state_b"].time_weighted_mean()
    checks = [
        Check(
            "the larger the rate difference, the larger the state "
            f"({means[0]:.0f} < {means[1]:.0f} < {means[2]:.0f})",
            means[0] < means[1] < means[2],
        ),
        Check(
            "the B state is insignificant compared to the A state "
            f"(B mean {state_b_40:.0f} < 10% of A mean {state_a_40:.0f})",
            state_b_40 < 0.1 * max(state_a_40, 1.0),
        ),
        Check(
            "B tuples are dropped on the fly by A punctuations",
            getattr(runs[2].join, "tuples_dropped_on_fly", 0) > 0,
        ),
    ]
    return FigureResult(
        "Figure 10",
        "Asymmetric punctuation inter-arrival, state (A=10 t/p fixed)",
        runs,
        checks,
    )


def figure11(scale: float = 1.0, seed: int = 13) -> FigureResult:
    """Fig. 11 — asymmetric punctuation rates, output rate."""
    runs = _asymmetric_runs(scale, seed, (10, 20, 40))
    durations = [run.duration_ms for run in runs]
    checks = [
        Check(
            "the slower the punctuations, the greater the output rate — "
            "fewer purges, less overhead (finish times "
            f"{durations[0]:.0f} > {durations[1]:.0f} > {durations[2]:.0f} ms)",
            durations[0] > durations[1] > durations[2],
        )
    ]
    return FigureResult(
        "Figure 11",
        "Asymmetric punctuation inter-arrival, output (A=10 t/p fixed)",
        runs,
        checks,
    )


def figure12(scale: float = 1.0, seed: int = 13) -> FigureResult:
    """Fig. 12 — PJoin-1 vs tuned lazy PJoin vs XJoin, output (A=10, B=20)."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(8_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=20,
        seed=seed,
    )
    eager = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=1)), workload, label="PJoin-1"
    )
    lazy = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=20)), workload, label="PJoin-20"
    )
    xjoin = run_join_experiment(xjoin_factory(), workload, label="XJoin")
    checks = [
        Check(
            "PJoin-1's output lags behind XJoin's (cost of purge) — "
            f"finish {eager.duration_ms:.0f} > {xjoin.duration_ms:.0f} ms",
            eager.duration_ms > xjoin.duration_ms,
        ),
        Check(
            "lazy purge with a suitable threshold beats XJoin — "
            f"finish {lazy.duration_ms:.0f} < {xjoin.duration_ms:.0f} ms",
            lazy.duration_ms < xjoin.duration_ms,
        ),
    ]
    return FigureResult(
        "Figure 12",
        "PJoin vs XJoin output under asymmetric punctuations (A=10, B=20)",
        [eager, lazy, xjoin],
        checks,
    )


def figure13(scale: float = 1.0, seed: int = 13) -> FigureResult:
    """Fig. 13 — state requirements for the Figure 12 configuration."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(8_000, scale),
        punct_spacing_a=10,
        punct_spacing_b=20,
        seed=seed,
    )
    eager = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=1)), workload, label="PJoin-1"
    )
    lazy = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=20)), workload, label="PJoin-20"
    )
    xjoin = run_join_experiment(xjoin_factory(), workload, label="XJoin")
    checks = [
        Check(
            "every PJoin variant needs far less state than XJoin "
            f"({eager.mean_state():.0f} and {lazy.mean_state():.0f} "
            f"vs {xjoin.mean_state():.0f})",
            eager.mean_state() < 0.5 * xjoin.mean_state()
            and lazy.mean_state() < 0.5 * xjoin.mean_state(),
        ),
        Check(
            "lazy purge costs only an insignificant state increase "
            "(mean within 2x of eager's)",
            lazy.mean_state() < 2.0 * max(eager.mean_state(), 1.0),
        ),
    ]
    return FigureResult(
        "Figure 13",
        "State requirements under asymmetric punctuations (A=10, B=20)",
        [eager, lazy, xjoin],
        checks,
    )


# ---------------------------------------------------------------------------
# Section 4.4 — punctuation propagation
# ---------------------------------------------------------------------------


def figure14(scale: float = 1.0, seed: int = 21) -> FigureResult:
    """Fig. 14 — punctuations output over time (ideal aligned case)."""
    workload = generate_workload(
        n_tuples_per_stream=_scaled(10_000, scale),
        punct_spacing_a=40,
        punct_spacing_b=40,
        aligned_punctuations=True,
        seed=seed,
    )
    config = PJoinConfig(
        purge_threshold=1,
        index_building="eager",
        propagation_mode="push_pairs",
        propagate_pairs_threshold=1,
    )
    run = run_join_experiment(pjoin_factory(config), workload, label="PJoin-prop")
    total_in = len(workload.punctuations(0)) + len(workload.punctuations(1))
    series = run.punctuation_output_series
    window_counts: List[float] = []
    if len(series) >= 2:
        t_last = series.times[-1]
        for i in range(5):
            a, b = t_last * i / 5, t_last * (i + 1) / 5
            window_counts.append(series.value_at(b) - series.value_at(a))
    mean_window = sum(window_counts) / len(window_counts) if window_counts else 0.0
    steady = bool(window_counts) and all(
        abs(c - mean_window) <= 0.35 * max(mean_window, 1.0) for c in window_counts
    )
    checks = [
        Check(
            "every received punctuation is eventually propagated "
            f"({run.punctuations_out} of {total_in})",
            run.punctuations_out == total_in,
        ),
        Check(
            "the propagation rate is steady in the ideal case "
            f"(per-fifth counts {[round(c) for c in window_counts]})",
            steady,
        ),
    ]
    return FigureResult(
        "Figure 14",
        "Punctuation propagation over time (aligned 40 t/p, paired trigger)",
        [run],
        checks,
    )


# ---------------------------------------------------------------------------
# Beyond the paper — memory-budget sweep (governor subsystem)
# ---------------------------------------------------------------------------


def fig_memory_sweep(
    scale: float = 1.0, seed: int = 5, eviction_policy: str = "lru"
) -> FigureResult:
    """Memory sweep — PJoin's advantage widens as the state budget shrinks.

    Beyond the paper's study: both joins run under the memory governor
    at a shrinking warm-state budget (unlimited, n/8, n/32 tuples).
    PJoin's punctuation purges keep its warm state small, so it pays few
    spill/fault round-trips; XJoin's ever-growing state thrashes against
    the budget, so shrinking it widens PJoin's finish-time advantage —
    the paper's memory argument made quantitative.  Every budget yields
    the same join result; only timing and governor counters move.
    """
    scale = max(scale, 0.25)
    n = _scaled(8_000, scale)
    workload = generate_workload(
        n_tuples_per_stream=n,
        punct_spacing_a=40,
        punct_spacing_b=40,
        seed=seed,
    )
    budgets = [math.inf, float(max(n // 8, 64)), float(max(n // 32, 32))]
    runs: List[ExperimentRun] = []
    for budget in budgets:
        spec = GovernorSpec(budget_tuples=budget, policy=eviction_policy)
        tag = format_budget(budget)
        with run_options(governor=spec):
            runs.append(
                run_join_experiment(
                    pjoin_factory(PJoinConfig(purge_threshold=1)),
                    workload,
                    label=f"PJoin-1 b={tag}",
                )
            )
            runs.append(
                run_join_experiment(
                    xjoin_factory(), workload, label=f"XJoin b={tag}"
                )
            )
    # All run calls precede all result reads (the sweep-runner contract).
    pjoins, xjoins = runs[0::2], runs[1::2]

    def spills(run: ExperimentRun) -> int:
        return run.join.counters().get("governor.spills", 0)

    ratios = [
        x.duration_ms / max(p.duration_ms, 1e-9)
        for p, x in zip(pjoins, xjoins)
    ]
    checks = [
        Check(
            "every budget produces the same join output "
            f"(PJoin {pjoins[0].results}, XJoin {xjoins[0].results} results)",
            len({run.results for run in pjoins}) == 1
            and len({run.results for run in xjoins}) == 1,
        ),
        Check(
            "the unlimited budget never spills (governor.spills == 0)",
            spills(pjoins[0]) == 0 and spills(xjoins[0]) == 0,
        ),
        Check(
            "the tight budget forces XJoin to spill "
            f"({spills(xjoins[-1])} spill runs)",
            spills(xjoins[-1]) > 0,
        ),
        Check(
            "shrinking the budget widens PJoin's finish-time advantage "
            f"(XJoin/PJoin ratios {[round(r, 2) for r in ratios]})",
            ratios[-1] > ratios[0],
        ),
    ]
    return FigureResult(
        "Memory sweep",
        f"PJoin vs XJoin under shrinking state budgets ({eviction_policy})",
        runs,
        checks,
        notes="Not a figure of the paper: exercises the memory governor "
              "(spill/fault-back) added by the budgeted-state subsystem.",
    )


# ---------------------------------------------------------------------------
# Beyond the paper: the cost-based adaptive planner (repro.planner)
# ---------------------------------------------------------------------------


def fig_nary_adaptive(scale: float = 1.0, seed: int = 11) -> FigureResult:
    """Adaptive probe-order planning on a rate-drifting 3-way join.

    Beyond the paper's study: the ``nary_drift`` workload inverts its
    arrival rates and punctuation cadences halfway through the run, so
    the stream that is sparse (cheap to probe, likely to miss and end
    the pipeline early) in the first half is dense in the second — any
    static probe order is wrong for half the run.  The adaptive planner
    re-scores the orders at punctuation-aligned purge boundaries from
    live per-side statistics and swaps plans by exact state handoff, so
    it tracks the drift.  Probe work is charged at a 10x
    ``probe_per_candidate`` so order costs dominate fixed per-tuple
    overhead (a probe-bound operator); every variant must produce the
    identical result multiset — the planner may only move time.
    """
    from repro.experiments.harness import run_nary_experiment
    from repro.planner import PlannerSpec, get_preset
    from repro.sim.costs import CostModel
    from repro.workloads.nary import generate_nary_workload

    scale = max(scale, 0.2)
    workload = generate_nary_workload(
        get_preset("nary_drift", scale=scale).with_overrides(seed=seed)
    )
    config = PJoinConfig(purge_threshold=8)
    cost_model = CostModel().with_overrides(probe_per_candidate=0.04)
    variants = [
        ("static stream-order", PlannerSpec(mode="static")),
        (
            "static adverse",
            PlannerSpec(mode="static", initial_order=(0, 2, 1)),
        ),
        ("adaptive", PlannerSpec(mode="adaptive", reopt_interval=2)),
    ]
    runs = [
        run_nary_experiment(
            workload, config=config, planner=spec,
            cost_model=cost_model, label=label,
        )
        for label, spec in variants
    ]
    default, adverse, adaptive = runs
    planner_counters = {
        key: value
        for key, value in adaptive.join.counters().items()
        if key.startswith("planner.")
    }
    switches = planner_counters.get("planner.switches", 0)
    checks = [
        Check(
            "every probe order produces the identical join output "
            f"({default.results} results)",
            len({run.results for run in runs}) == 1,
        ),
        Check(
            "the adaptive planner beats the adverse static order "
            f"(adaptive {adaptive.duration_ms:.0f} ms vs "
            f"adverse {adverse.duration_ms:.0f} ms)",
            adaptive.duration_ms < adverse.duration_ms,
        ),
        Check(
            f"the planner re-plans and switches at least once "
            f"(switches={switches:.0f}, "
            f"reopts={planner_counters.get('planner.reopt.count', 0):.0f})",
            switches >= 1,
        ),
        Check(
            "the adaptive run stays close to the good static order "
            f"(adaptive {adaptive.duration_ms:.0f} ms vs "
            f"stream-order {default.duration_ms:.0f} ms)",
            adaptive.duration_ms <= default.duration_ms * 1.10,
        ),
    ]
    return FigureResult(
        "N-ary adaptive",
        "Cost-based adaptive probe ordering under rate drift",
        runs,
        checks,
        notes="Not a figure of the paper: exercises the repro.planner "
              "subsystem (statistics, cost model, punctuation-aligned "
              "re-optimization) on the 3-way join of Section 6.",
    )


# ---------------------------------------------------------------------------
# Beyond the paper: skew-adaptive partitioning (repro.skew)
# ---------------------------------------------------------------------------


def fig_skew_sweep(scale: float = 1.0, seed: int = 17) -> FigureResult:
    """Throughput and peak state vs Zipf exponent, static vs adaptive.

    Beyond the paper's study: the generic workload draws its join keys
    Zipf-distributed over the open window (uniform, then exponents
    0.8/1.2/1.6), and five execution variants run each regime — plain
    PJoin on static buckets, PJoin with the skew layer's adaptive
    split/coalesce buckets, XJoin, the 4-shard PJoin stack on hash
    routing, and the 4-shard stack with hot-key replication.  Probe
    cost is charged per scanned bucket entry, so piling the hot keys
    into few buckets (static) costs time that splitting them back out
    (adaptive) recovers; restructures happen only at the
    punctuation-aligned purge boundaries, so every variant must produce
    the identical result multiset — skew handling may only move time.
    """
    from repro.skew.manager import SkewSpec

    scale = max(scale, 0.2)
    exponents: List[object] = [None, 0.8, 1.2, 1.6]
    config = PJoinConfig(n_partitions=8, purge_threshold=1)
    adaptive_spec = SkewSpec()
    hotkey_spec = SkewSpec(hot_keys=True, adaptive=False)
    runs: List[ExperimentRun] = []
    for exponent in exponents:
        workload = generate_workload(
            n_tuples_per_stream=_scaled(6_000, scale),
            punct_spacing_a=40,
            punct_spacing_b=40,
            active_values=48,
            seed=seed,
            zipf_exponent=exponent,
        )
        tag = "uniform" if exponent is None else f"z={exponent}"
        runs.append(
            run_join_experiment(
                pjoin_factory(config), workload, label=f"PJoin static {tag}"
            )
        )
        with run_options(skew=adaptive_spec):
            runs.append(
                run_join_experiment(
                    pjoin_factory(config), workload,
                    label=f"PJoin adaptive {tag}",
                )
            )
        runs.append(
            run_join_experiment(xjoin_factory(), workload, label=f"XJoin {tag}")
        )
        with run_options(shards=4):
            runs.append(
                run_join_experiment(
                    pjoin_factory(config), workload,
                    label=f"sharded static {tag}",
                )
            )
            with run_options(skew=hotkey_spec):
                runs.append(
                    run_join_experiment(
                        pjoin_factory(config), workload,
                        label=f"sharded hot-key {tag}",
                    )
                )
    # All run calls precede all result reads (the sweep-runner contract).
    per_exponent = [runs[i : i + 5] for i in range(0, len(runs), 5)]
    statics = [group[0] for group in per_exponent]
    adaptives = [group[1] for group in per_exponent]

    def splits(run: ExperimentRun) -> int:
        return int(run.join.counters().get("skew.splits", 0))

    gains = [
        s.duration_ms / max(a.duration_ms, 1e-9)
        for s, a in zip(statics, adaptives)
    ]
    counts_equal = all(
        len({run.results for run in group}) == 1 for group in per_exponent
    )
    checks = [
        Check(
            "every variant produces the identical join output at every "
            f"exponent ({[group[0].results for group in per_exponent]})",
            counts_equal,
        ),
        Check(
            "adaptive partitioning beats the static layout at Zipf "
            f"exponent >= 1.2 (static/adaptive duration ratios "
            f"{[round(g, 3) for g in gains]})",
            gains[2] > 1.0 and gains[3] > 1.0,
        ),
        Check(
            "the adaptive layout actually splits hot buckets under skew "
            f"(splits {[splits(a) for a in adaptives]})",
            splits(adaptives[2]) > 0 and splits(adaptives[3]) > 0,
        ),
        Check(
            "uniform keys trigger far fewer splits than heavy skew "
            f"(uniform {splits(adaptives[0])} vs z=1.6 "
            f"{splits(adaptives[3])})",
            splits(adaptives[0]) * 4 <= splits(adaptives[3]),
        ),
    ]
    return FigureResult(
        "Skew sweep",
        "Throughput and peak state vs Zipf exponent, static vs adaptive",
        runs,
        checks,
        notes="Not a figure of the paper: exercises the repro.skew "
              "subsystem (frequency sketch, split/coalesce partitioner, "
              "hot-key sharding) on Zipf-keyed workloads.",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

FigureFn = Callable[..., FigureResult]

ALL_FIGURES: Dict[str, FigureFn] = {
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "fig_memory_sweep": fig_memory_sweep,
    "fig_nary_adaptive": fig_nary_adaptive,
    "fig_skew_sweep": fig_skew_sweep,
}


def run_all(scale: float = 1.0, jobs: int = 1) -> Dict[str, FigureResult]:
    """Run every figure preset (used by the EXPERIMENTS.md generator).

    ``jobs > 1`` fans each figure's sweep points out over worker
    processes via :class:`~repro.perf.parallel.ParallelSweepRunner`;
    results are byte-identical to a serial run (up to the ``jobs``
    manifest stamp).
    """
    if jobs > 1:
        from repro.perf.parallel import ParallelSweepRunner

        runner = ParallelSweepRunner(jobs)
        return {name: runner.run_experiment(name, scale) for name in ALL_FIGURES}
    return {name: fn(scale=scale) for name, fn in ALL_FIGURES.items()}
