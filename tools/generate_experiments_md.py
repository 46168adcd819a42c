#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from full-scale figure and ablation runs.

Runs every preset in :mod:`repro.experiments.figures` and
:mod:`repro.experiments.ablations` at scale 1.0 and writes the
paper-vs-measured record, including each run's summary table and the
shape-check verdicts.

Run from the repository root:
    python tools/generate_experiments_md.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.metrics.analysis import growth_ratio, is_bounded, steadiness

PAPER_CLAIMS = {
    "figure5": (
        "PJoin vs XJoin, memory overhead (punct inter-arrival 40 t/p)",
        "\"the memory requirement for the PJoin state is almost "
        "insignificant compared to that of XJoin\"",
    ),
    "figure6": (
        "PJoin state vs punctuation inter-arrival 10/20/30 t/p",
        "\"as the punctuation inter-arrival increases, the average size "
        "of the PJoin state becomes larger correspondingly\"",
    ),
    "figure7": (
        "Tuple output rate, PJoin vs XJoin",
        "\"PJoin maintains an almost steady output rate whereas the "
        "output rate of XJoin drops\"",
    ),
    "figure8": (
        "Eager vs lazy purge, memory overhead (10 t/p)",
        "\"eager purge is the best strategy for minimizing the join "
        "state, whereas the lazy purge requires more memory\"",
    ),
    "figure9": (
        "Output over time for purge thresholds 1/100/400/800",
        "\"up to some limit, the higher the purge threshold, the higher "
        "the output rate ... the case of PJoin-400 and PJoin-800\" loses",
    ),
    "figure10": (
        "Asymmetric punctuation inter-arrival, state (A=10 fixed)",
        "\"the larger the difference in the punctuation inter-arrival of "
        "the two input streams, the larger will be the memory "
        "requirement\"; the B state is insignificant (on-the-fly drop)",
    ),
    "figure11": (
        "Asymmetric punctuation inter-arrival, output rate",
        "\"the slower the punctuation arrival rate, the greater is the "
        "tuple output rate\" (fewer purges, less overhead)",
    ),
    "figure12": (
        "PJoin vs XJoin output, A=10 / B=20 t/p",
        "\"the output rate of PJoin with the eager purge lags behind "
        "XJoin ... lazy purge with an appropriate threshold makes PJoin "
        "better or at least equivalent\"",
    ),
    "figure13": (
        "State requirements for the Figure 12 case",
        "eager purge minimises memory; lazy purge costs only an "
        "\"insignificant increase in memory overhead\" — both far below "
        "XJoin",
    ),
    "figure14": (
        "Punctuation propagation over time (ideal aligned case)",
        "\"PJoin can guarantee a steady punctuation propagation rate in "
        "the ideal case\"",
    ),
    "fig_memory_sweep": (
        "PJoin vs XJoin under shrinking state budgets (memory governor)",
        "(beyond the paper) the paper's memory argument made "
        "quantitative: when the join state must fit a budget, XJoin's "
        "ever-growing state thrashes against it while PJoin's "
        "punctuation purges keep it warm — shrinking the budget widens "
        "PJoin's finish-time advantage, at an unchanged result multiset",
    ),
    "fig_nary_adaptive": (
        "Cost-based adaptive probe ordering under rate drift",
        "(beyond the paper) the paper's n-way extension (Section 6) "
        "leaves the probe order free; when the streams' rates and "
        "punctuation cadences invert mid-run, re-planning at "
        "punctuation-aligned purge boundaries beats the adverse static "
        "order and stays close to the good one, at an unchanged result "
        "multiset",
    ),
    "fig_skew_sweep": (
        "Throughput and peak state vs Zipf exponent (skew layer)",
        "(beyond the paper) the paper assumes roughly uniform join "
        "keys; under Zipf skew one hot bucket dominates probe cost. "
        "Adaptive bucket splitting and hot-key shard replication "
        "(PanJoin direction) recover throughput as the exponent grows, "
        "at an unchanged result multiset per configuration",
    ),
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (Section 4), seven ablations and
three figures beyond the paper (memory budgets, adaptive n-ary probe
ordering and key skew), regenerated by this repository's benchmark
harness.

**Substrate note.** The paper measured a Java 1.4 implementation inside
the Raindrop engine on a 2.4 GHz Pentium-IV (wall-clock time).  This
reproduction runs the same algorithms on a deterministic discrete-event
simulator with an explicit cost model (see DESIGN.md §1), so absolute
numbers are *virtual milliseconds* and are not expected to match the
paper's. What is expected to match — and is asserted by each figure's
*shape checks* below — is every qualitative claim: who wins, what grows,
where the optimum sits.

All runs: many-to-many equi-join, Poisson tuple inter-arrival with mean
2 ms per stream (the paper's setting), seeded and fully reproducible.
Regenerate this file with `python tools/generate_experiments_md.py`;
run individual figures with `pytest benchmarks/ --benchmark-only`.

Table 1 (the example event-listener registry) is reproduced as
configuration, not measurement: `repro.core.registry.table1_registry()`
builds exactly the paper's wiring and is verified by
`tests/core/test_events_registry.py::TestTable1`.
"""


def render_section(name: str, result: FigureResult) -> str:
    title, claim = PAPER_CLAIMS.get(
        name, (result.title, "(ablation — no direct paper figure)")
    )
    lines = [f"## {result.figure_id} — {title}", ""]
    lines.append(f"**Paper's claim.** {claim}")
    lines.append("")
    lines.append("**Measured.**")
    lines.append("")
    lines.append("```")
    lines.append(result.summary_table())
    lines.append("```")
    lines.append("")
    lines.append("**Shape indicators** (state growth: share of the peak "
                 "explained by linear growth; output steadiness: relative "
                 "spread of windowed rates, lower = steadier).")
    lines.append("")
    for run in result.runs:
        state = run.state_series
        rate = run.output_series.rate_per_ms()
        lines.append(
            f"- `{run.label}` — state growth {growth_ratio(state):.2f} "
            f"({'bounded' if is_bounded(state) else 'growing'}), "
            f"output steadiness {steadiness(rate):.2f}"
        )
    lines.append("")
    lines.append("**Shape checks.**")
    lines.append("")
    for check in result.checks:
        mark = "x" if check.passed else " "
        lines.append(f"- [{mark}] {check.description}")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    t0 = time.time()
    sections = []
    verdicts = []
    for name, fn in list(ALL_FIGURES.items()) + list(ALL_ABLATIONS.items()):
        print(f"running {name} ...", flush=True)
        result = fn(scale=1.0)
        sections.append(render_section(name, result))
        verdicts.append((result.figure_id, result.all_passed))
    failed = [fid for fid, ok in verdicts if not ok]
    summary = [
        "",
        "## Verdict summary",
        "",
        "| Experiment | Shape checks |",
        "|---|---|",
    ]
    for fid, ok in verdicts:
        summary.append(f"| {fid} | {'all pass' if ok else 'FAILURES'} |")
    body = HEADER + "\n" + "\n".join(summary) + "\n\n" + "\n".join(sections)
    out_path = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    out_path.write_text(body)
    print(f"wrote {out_path} in {time.time() - t0:.0f}s")
    if failed:
        print(f"WARNING: shape-check failures in {failed}")
        sys.exit(1)


if __name__ == "__main__":
    main()
