"""Exact ties between engine events keep their order.

With integer arrival times, integer costs and a sample interval that
divides them, arrivals, operator completions, metric samples and timers
land on the same virtual instants, so only the engine's ``(time, seq)``
tie-break orders them.  This golden pins that order through everything
it decides: the ordered results with their timestamps, the sink's
arrival times, the sampled series, the join's counters, the number of
events and the finish time.  The cases are an eager PJoin with a
time-driven propagation timer, an XJoin whose disk stage starts on
idle, a 2-shard PJoin, sources with a disorder slack (flushed at
end-of-stream) and a stalled source under the stall watchdog.

A change that is meant to move these numbers regenerates the golden::

    PYTHONPATH=src python tests/sim/test_engine_ties.py
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.config import eager_config
from repro.experiments.harness import pjoin_factory, run_options
from repro.metrics.collector import MetricsCollector
from repro.operators.sink import Sink
from repro.operators.xjoin import XJoin
from repro.query.plan import QueryPlan
from repro.resilience.watchdog import StallWatchdog
from repro.sim.costs import CostModel
from repro.workloads import generate_workload
from repro.workloads.faults import inject_out_of_order, inject_stall

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "engine_ties.json"

# Every charge a whole number of milliseconds: any sum of them is exact.
COSTS = CostModel(
    tuple_overhead=1.0, probe_per_candidate=0.0, insert=0.0, drop_check=0.0,
    emit_result=0.0, punct_overhead=1.0, purge_fixed=3.0,
    purge_scan_per_tuple=0.0, index_fixed=1.0, index_scan_per_tuple=0.0,
    index_eval=0.0, propagate_fixed=1.0, propagate_per_punct=0.0,
    disk_seek=2.0, disk_write_per_tuple=0.0, disk_read_per_tuple=0.0,
)
SAMPLE_MS = 5.0
# Arrival times are stretched 3x before flooring, so the join idles
# between bursts and arrivals tie with completions that end a busy
# period: their order decides whether ``on_idle`` runs in between.
TIME_SCALE = 3
EAGER = eager_config(
    index_building="eager", propagation_mode="push_time",
    propagate_time_threshold_ms=20.0, disk_join_idle_ms=5.0,
)


def floored(schedule):
    """*schedule* stretched, with times and timestamps on whole ms."""
    return [
        (
            float(math.floor(time * TIME_SCALE)),
            item.with_ts(float(math.floor(item.ts * TIME_SCALE))),
        )
        for time, item in schedule
    ]


def tied_input():
    workload = generate_workload(
        n_tuples_per_stream=300, punct_spacing_a=15, punct_spacing_b=15,
        active_values=10, seed=3,
    )
    return [floored(schedule) for schedule in workload.schedules], workload


def disordered_input():
    schedules, workload = tied_input()
    return [
        [
            (float(math.floor(time)), item)
            for time, item in inject_out_of_order(
                schedule, displacement_ms=12.0, fraction=0.3, seed=side
            )
        ]
        for side, schedule in enumerate(schedules)
    ], workload


def stalled_input():
    schedules, workload = tied_input()
    schedules[0] = inject_stall(schedules[0], at_fraction=0.5, gap_ms=200.0)
    return schedules, workload


def pjoin(plan, workload):
    return pjoin_factory(EAGER)(plan, workload)


def quarantining(plan, workload):
    # A stall heartbeat can promise what the stalled stream later breaks.
    return pjoin_factory(EAGER.with_overrides(fault_policy="quarantine"))(
        plan, workload
    )


def sharded(plan, workload):
    with run_options(shards=2):
        return pjoin_factory(EAGER)(plan, workload)


def xjoin(plan, workload):
    return XJoin(
        plan.engine, plan.cost_model,
        workload.schemas[0], workload.schemas[1],
        workload.join_fields[0], workload.join_fields[1],
        memory_threshold=40, disk_join_idle_ms=5.0,
    )


# case -> (join builder, input builder, disorder slack, watchdog timeout)
CASES = {
    "pjoin/eager": (pjoin, tied_input, None, None),
    "xjoin/memory_threshold": (xjoin, tied_input, None, None),
    "pjoin/sharded_k2": (sharded, tied_input, None, None),
    "pjoin/disorder_slack": (pjoin, disordered_input, 15.0, None),
    "pjoin/stall_watchdog": (quarantining, stalled_input, None, 40.0),
}


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def summarize(case):
    """What the tie order decides in one case."""
    build, make_input, slack, timeout = CASES[case]
    schedules, workload = make_input()
    plan = QueryPlan(cost_model=COSTS)
    join = build(plan, workload)
    sink = Sink(plan.engine, plan.cost_model)
    join.connect(sink)
    for port, schedule in enumerate(schedules):
        plan.add_source(
            schedule, join, port=port, name="AB"[port], disorder_slack_ms=slack
        )
    collector = MetricsCollector(plan.engine, interval_ms=SAMPLE_MS)
    collector.register_gauge("state", join.total_state_size)
    collector.register_gauge("output", lambda: sink.tuple_count)
    collector.register_gauge("puncts", lambda: sink.punctuation_count)
    # The workload's end time is unstretched; sample past the last arrival.
    collector.start(horizon_ms=2 * TIME_SCALE * workload.end_time)
    watchdog = None
    if timeout is not None:
        watchdog = StallWatchdog(plan.engine, timeout_ms=timeout)
        watchdog.watch_plan_sources(plan, workload.schemas)
        watchdog.start()
    plan.run()
    results = [(t.values, t.ts) for t in sink.results]
    assert all(ts == int(ts) for _values, ts in results)
    out = {
        "counters": join.counters(),
        "events_executed": plan.engine.events_executed,
        "finish_ms": sink.eos_time,
        "result_count": len(results),
        "results": digest(results),
        "tuple_arrivals": digest(sink.tuple_arrival_times),
        "punctuation_arrivals": digest(sink.punctuation_arrival_times),
        "punctuations": digest([(repr(p), p.ts) for p in sink.punctuations]),
        "series": {
            name: digest(list(series.points()))
            for name, series in collector.series.items()
        },
        "samples": len(collector.series["state"]),
    }
    if watchdog is not None:
        out["watchdog"] = watchdog.counters()
    return out


def render(summaries):
    return json.dumps(summaries, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_tie_order_matches_golden(case, golden):
    # Round-trip through JSON so tuples and float keys compare as stored.
    assert json.loads(render(summarize(case))) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(render({case: summarize(case) for case in CASES}))
