"""The governor's decisions at a tight budget, pinned by a golden.

The equivalence suite checks that a finite budget leaves the result
multiset alone, but not which buckets were spilled or when.  This golden
pins the decisions themselves: the governor's counters, the number of
simulated events and the virtual finish time of PJoin (plain and with
adaptive buckets), XJoin, SHJ and the n-ary PJoin under each of the four
eviction policies.  Any change to victim choice, fault-back or I/O
charging shows up here.

A change that is meant to move these numbers regenerates the golden::

    PYTHONPATH=src python tests/memory/test_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    governed,
    nary_pjoin_factory,
    pjoin_factory,
    run_join_experiment,
    shj_factory,
    skewed,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.memory.policies import POLICIES
from repro.planner import get_preset
from repro.skew.manager import SkewSpec
from repro.workloads import generate_nary_workload, generate_workload

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "memory_governed.json"

BUDGET = 60.0
CONFIG = PJoinConfig(purge_threshold=1)
SKEW = SkewSpec(adaptive=True, min_split_occupancy=8)

JOINS = {
    "pjoin": lambda: pjoin_factory(CONFIG),
    "pjoin_skew": lambda: pjoin_factory(CONFIG),
    "xjoin": xjoin_factory,
    "shj": shj_factory,
    "nary": lambda: nary_pjoin_factory(config=CONFIG),
}

CASES = [f"{join}/{policy}" for join in JOINS for policy in sorted(POLICIES)]


def workload(join):
    if join == "nary":
        spec = get_preset("nary_drift").with_overrides(
            n_tuples_per_stream=500, seed=3
        )
        return generate_nary_workload(spec)
    return generate_workload(
        n_tuples_per_stream=1000, punct_spacing_a=40, punct_spacing_b=40,
        seed=3,
    )


def summarize(case):
    """Governor counters, event count and finish time of one case."""
    join, policy = case.split("/")
    with governed(GovernorSpec(BUDGET, policy=policy)), \
            skewed(SKEW if join == "pjoin_skew" else None):
        run = run_join_experiment(JOINS[join](), workload(join), label=case)
    out = {
        key: value
        for key, value in run.join.counters().items()
        if key.startswith("governor.")
    }
    out["events_executed"] = run.manifest["engine"]["events_executed"]
    out["finish_ms"] = run.duration_ms
    return out


def render(summaries):
    return json.dumps(summaries, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_governed_run_matches_golden(case, golden):
    assert summarize(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(render({case: summarize(case) for case in CASES}))
    print(f"wrote {GOLDEN}")
