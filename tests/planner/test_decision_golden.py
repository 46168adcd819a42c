"""The adaptive planner's decisions, pinned byte for byte.

``repro plan`` settings (adaptive, re-optimise every 2nd purge-complete
boundary, purge threshold 8, probe-heavy charging at
``probe_per_candidate`` 0.04) on two presets at scale 0.3.  Each case
keeps the full decision log, the planner counters, the switch count
and the final order, plus a digest of what every decision saw and
scored: each side's statistics and every candidate's order, total and
per-side contributions.  ``json`` writes every float by its ``repr``,
so comparing the rendered text with the golden's bytes pins each cost
to the last bit: a change that moves a total by one ulp fails here
even where ``plan_smoke``'s counts and rounded finish times hold.

A change that is meant to move the decisions regenerates the golden::

    PYTHONPATH=src python tests/planner/test_decision_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import PJoinConfig
from repro.experiments.harness import run_nary_experiment
from repro.planner import PlannerSpec, get_preset
from repro.sim.costs import CostModel
from repro.workloads.nary import generate_nary_workload

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "plan_decisions.json"
PRESETS = ("nary_drift", "nary_skew4")
SCALE = 0.3


def digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(preset):
    workload = generate_nary_workload(get_preset(preset, scale=SCALE))
    run = run_nary_experiment(
        workload,
        config=PJoinConfig(purge_threshold=8),
        planner=PlannerSpec(mode="adaptive", reopt_interval=2),
        cost_model=CostModel().with_overrides(probe_per_candidate=0.04),
    )
    reopt = run.join.reoptimizer
    return {
        "decisions": reopt.decision_log(),
        "counters": reopt.counters(),
        "switches": reopt.switches,
        "final_order": list(run.join.stream_order),
        "scored": digest([
            {
                "stats": [side.as_dict() for side in decision.stats],
                "choice": decision.choice.as_dict(),
            }
            for decision in reopt.decisions
        ]),
    }


def render(summaries):
    return json.dumps(summaries, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def summaries():
    return {preset: summarize(preset) for preset in PRESETS}


def test_golden_is_the_rendering_byte_for_byte(summaries):
    assert GOLDEN.read_text() == render(summaries)


@pytest.mark.parametrize("preset", PRESETS)
def test_decisions_match_golden(preset, summaries):
    golden = json.loads(GOLDEN.read_text())[preset]
    ours = summaries[preset]
    assert ours["switches"] >= 1
    assert len(ours["decisions"]) == ours["counters"]["reopt.count"]
    # Re-rendering the loaded golden reproduces its bytes (floats
    # round-trip through repr), so this compares every float exactly.
    assert render(ours) == render(golden)


if __name__ == "__main__":
    GOLDEN.write_text(render({preset: summarize(preset) for preset in PRESETS}))
