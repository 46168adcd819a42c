"""One workload run in a fresh process; prints one JSON record.

Run from the repository root::

    python3 -m perfbench.child --workload paper_pjoin --seed 1000 [--trace]

The process imports ``repro``, generates the input (both timed as
set-up), runs the workload once and checks the result.  Untraced runs
stamp every K-th input item the join finishes, for the per-block
latency; the traced run records spans instead (see ``tracing.py``).
Peak RSS is read right after the run call, before any oracle work.

The process also times a fixed calibration job, the benchmark's own
code, before set-up and again right after the run call; ``run.py``
scales the wall times by it so that they read at one reference machine
speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
MIN_BLOCKS = 1000
# Self time of the run call and of the event loop is time no wrapped
# stage claims.  Above this share of the root span the entry points no
# longer cover the run, and the per-layer breakdown would hide where
# the time goes.  The four workloads measure 0.07 to 0.11.
UNATTRIBUTED_MAX_SHARE = 0.2


def calibration_job() -> int:
    """A fixed piece of interpreter work of the join's kind: calls,
    small tuples, dict and list traffic and a heap."""
    heap: List[Tuple[int, int]] = []
    buckets: Dict[int, List[Tuple[int, int]]] = {}
    total = 0
    for i in range(6000):
        item = ((i * 7919) % 61, i)
        buckets.setdefault(item[0], []).append(item)
        heapq.heappush(heap, item)
        if i % 3 == 0:
            total += len(buckets[heapq.heappop(heap)[0]])
    return total


def calibration_s() -> float:
    """Fastest of three timings of :func:`calibration_job`."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        calibration_job()
        best = min(best, time.perf_counter() - start)
    return best


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Stamper:
    """Stamps the wall clock at every K-th input item the join handles.

    Items are tuples and punctuations, summed over shards; everything
    the program does between two stamps falls into one block.
    """

    def __init__(self, every: int, counted: frozenset) -> None:
        self.every = every
        self.counted = counted
        self.stamps = array("q")

    def hook(self, factory: Callable[..., Any]) -> Callable[..., Any]:
        from perfbench.workloads import inner_joins

        def build(plan: Any, workload: Any) -> Any:
            join = factory(plan, workload)
            left = [self.every]
            for op in inner_joins(join):
                op.handle = self._stamped(op.handle, left)
            return join

        return build

    def _stamped(self, handle: Callable[..., float], left: List[int]) -> Callable[..., float]:
        every, counted, stamps = self.every, self.counted, self.stamps
        clock = time.perf_counter_ns

        def stamped(item: Any, port: int) -> float:
            cost = handle(item, port)
            if item.__class__ in counted:
                left[0] -= 1
                if not left[0]:
                    left[0] = every
                    stamps.append(clock())
            return cost

        stamped.__wrapped__ = handle  # type: ignore[attr-defined]
        return stamped

    def blocks_ms(self) -> List[float]:
        stamps = self.stamps
        return [(stamps[i] - stamps[i - 1]) / 1e6 for i in range(1, len(stamps))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(
    name: str,
    seed: int,
    traced: bool,
    trace_dir: Path,
    min_blocks: int = MIN_BLOCKS,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Everything one process measures for one run of one workload.

    *overrides* replaces fields of the workload (tests use it to shrink
    the input or switch a layer off).
    """
    calibration_before = calibration_s()
    t0 = time.perf_counter()
    from perfbench import oracle
    from perfbench.workloads import WORKLOADS
    from repro.punctuations.punctuation import Punctuation
    from repro.tuples.tuple import Tuple

    import_s = time.perf_counter() - t0
    workload = dataclasses.replace(WORKLOADS[name], **(overrides or {}))
    record: Dict[str, Any] = {"workload": name, "seed": seed, "traced": traced}
    if traced:
        return _run_traced(workload, seed, record, trace_dir, import_s, calibration_before)
    t1 = time.perf_counter()
    data = workload.generate(seed)
    generate_s = time.perf_counter() - t1
    stamper = Stamper(workload.stamp_every, frozenset((Tuple, Punctuation)))
    t2 = time.perf_counter()
    run = workload.run(data, stamper.hook)
    wall_s = time.perf_counter() - t2
    record["peak_rss_mb"] = _peak_rss_mb()
    record["calibration_s"] = (calibration_before + calibration_s()) / 2
    blocks = sorted(stamper.blocks_ms())
    identity = oracle.input_identity(data)
    failures = _check(run, oracle.result_count(data), workload)
    if len(blocks) < min_blocks:
        failures.append(f"only {len(blocks)} blocks (need {min_blocks})")
    record.update(
        identity,
        import_s=import_s,
        generate_s=generate_s,
        setup_s=import_s + generate_s,
        wall_s=wall_s,
        results=run.results,
        events=run.manifest["engine"]["events_executed"],
        state_mean_tuples=run.mean_state(),
        virtual_duration_ms=run.duration_ms,
        blocks=len(blocks),
        block_ms_p50=percentile(blocks, 0.5) if blocks else 0.0,
        block_ms_p99=percentile(blocks, 0.99) if blocks else 0.0,
        block_ms_max=blocks[-1] if blocks else 0.0,
        failures=failures,
    )
    return record


def _check(run: Any, expected: int, workload: Any) -> List[str]:
    """Result count, state sampling, dead letters and engagement gates."""
    from perfbench.workloads import (
        SAMPLE_INTERVAL_MS,
        dead_letter_count,
        engagement_failures,
    )

    failures = []
    if run.results != expected:
        failures.append(f"{run.results} results, oracle says {expected}")
    sampled = run.state_series.times
    last = sampled[-1] if sampled else 0.0
    if run.duration_ms - last > SAMPLE_INTERVAL_MS:
        failures.append(
            f"state samples stop at {last:.0f} virtual ms, end-of-stream is "
            f"at {run.duration_ms:.0f} (raise the workload's horizon_factor)"
        )
    dead = dead_letter_count(run)
    if dead:
        failures.append(f"{dead} tuples of the valid input dead-lettered")
    failures.extend(engagement_failures(workload, run))
    return failures


def _run_traced(
    workload: Any,
    seed: int,
    record: Dict[str, Any],
    trace_dir: Path,
    import_s: float,
    calibration_before: float,
) -> Dict[str, Any]:
    from perfbench import oracle
    from perfbench.layers import layer_metrics, trace_gate_failures
    from perfbench.tracing import ROOT as ROOT_SPAN
    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import inner_joins
    from repro.sim.costs import CostModel

    recorder = SpanRecorder()
    data = recorder.wrap(workload.generate, "workloads.generate")(seed)
    generate_ms = recorder.span_ms(0)
    recorder.item_ids = {
        id(item): ordinal
        for ordinal, (_t, item) in enumerate(
            pair for schedule in data.schedules for pair in schedule
        )
    }
    scanned = [0]
    purge_cost = vars(CostModel)["purge_cost"]

    def counting_purge_cost(model: Any, state_tuples_scanned: int) -> float:
        scanned[0] += state_tuples_scanned
        return purge_cost(model, state_tuples_scanned)

    def hook(factory: Callable[..., Any]) -> Callable[..., Any]:
        def build(plan: Any, workload_input: Any) -> Any:
            join = factory(plan, workload_input)
            recorder.attach_join(join, inner_joins(join))
            return join

        return build

    recorder.replace(CostModel, "purge_cost", counting_purge_cost)
    recorder.install()
    try:
        run = recorder.wrap(workload.run, ROOT_SPAN)(data, hook, keep_items=True)
    finally:
        recorder.restore()
    record["calibration_s"] = (calibration_before + calibration_s()) / 2
    root = recorder.root_index()
    root_ms = recorder.span_ms(root)
    summary = recorder.summary(root)
    trace_path = trace_dir / f"{workload.name}-seed{seed}.spans.tsv.gz"
    recorder.write(trace_path)
    identity = oracle.input_identity(data)
    failures = _check(run, oracle.result_count(data), workload)
    if run.sink.result_multiset() != oracle.result_multiset(data):
        failures.append("result multiset differs from the oracle")
    failures.extend(trace_gate_failures(workload, summary))
    # Self times add up to the root by construction (spans nest on one
    # stack); what can fail is how much of it no stage claims.
    self_total = sum(stats["self_ms"] for stats in summary.values())
    assert abs(self_total - root_ms) <= 1e-6 * max(root_ms, 1.0), (self_total, root_ms)
    unattributed = summary[ROOT_SPAN]["self_ms"] + summary["sim.loop"]["self_ms"]
    unattributed_share = unattributed / root_ms if root_ms else 0.0
    if unattributed_share > UNATTRIBUTED_MAX_SHARE:
        failures.append(
            f"{unattributed_share:.0%} of the root span is run-call and event-loop "
            f"self time, in no stage (at most {UNATTRIBUTED_MAX_SHARE:.0%})"
        )
    record.update(
        identity,
        import_s=import_s,
        root_ms=root_ms,
        self_total_ms=self_total,
        unattributed_share=unattributed_share,
        spans=len(recorder),
        trace_file=str(
            trace_path.relative_to(ROOT) if trace_path.is_relative_to(ROOT) else trace_path
        ),
        summary=summary,
        metrics=layer_metrics(
            run, summary, identity["items"], root_ms, generate_ms, len(recorder), scanned[0]
        ),
        results=run.results,
        failures=failures,
    )
    return record


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        record = run_once(args.workload, args.seed, args.trace, ROOT / ".perfbench-out")
    except Exception:  # a crash of the program counts as a failed run
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "failures": ["raised: " + traceback.format_exc(limit=8)],
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
