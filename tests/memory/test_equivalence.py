"""The governor's two equivalence guarantees, across every join.

* Unlimited budget — byte-identical: same result multiset AND the same
  virtual finish time as an ungoverned run (the fast path touches
  nothing, so not a single simulated event may shift).
* Any finite budget — result-equivalent: spills and fault-backs change
  timing and counters, never the output multiset.
"""

import math
import pickle
from collections import Counter
from itertools import product

import pytest

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.experiments.harness import (
    governed,
    pjoin_factory,
    run_join_experiment,
    shj_factory,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.query.plan import QueryPlan
from repro.shard.backend import run_sharded
from repro.sim.costs import CostModel
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads.generator import generate_workload
from repro.workloads.reference import reference_join_multiset

CONFIG = PJoinConfig(purge_threshold=1, propagation_mode="push_count")

FACTORIES = {
    "pjoin": lambda: pjoin_factory(CONFIG),
    "xjoin": lambda: xjoin_factory(),
    "shj": lambda: shj_factory(),
}

TIGHT = 16.0


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        n_tuples_per_stream=600, punct_spacing_a=40, punct_spacing_b=40,
        seed=7,
    )


@pytest.fixture(scope="module")
def oracle(workload):
    return reference_join_multiset(
        workload.schedule_a, workload.schedule_b,
        workload.schemas[0], workload.schemas[1],
    )


def run(name, workload, spec):
    with governed(spec):
        return run_join_experiment(
            FACTORIES[name](), workload, label=name, keep_items=True
        )


def multiset(experiment_run):
    return Counter(dict(experiment_run.sink.result_multiset()))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_unlimited_budget_is_byte_identical(name, workload, oracle):
    base = run(name, workload, None)
    inf = run(name, workload, GovernorSpec(math.inf))
    assert multiset(inf) == multiset(base) == oracle
    assert inf.duration_ms == base.duration_ms
    counters = inf.join.counters()
    assert counters.get("governor.spills", 0) == 0
    assert counters.get("governor.faults", 0) == 0


@pytest.mark.parametrize(
    "name, policy",
    [
        ("pjoin", "lru"),
        ("pjoin", "punctuation-aware"),
        ("xjoin", "lru"),
        ("xjoin", "largest-partition-first"),
        ("xjoin", "punctuation-aware"),
        ("shj", "lru"),
    ],
)
def test_finite_budget_preserves_result_multiset(
    name, policy, workload, oracle
):
    governed_run = run(
        name, workload, GovernorSpec(TIGHT, policy=policy)
    )
    assert multiset(governed_run) == oracle
    counters = governed_run.join.counters()
    assert counters["governor.spills"] > 0


def test_tight_budget_takes_longer_than_unlimited(workload):
    inf = run("xjoin", workload, GovernorSpec(math.inf))
    tight = run("xjoin", workload, GovernorSpec(TIGHT))
    assert tight.duration_ms > inf.duration_ms


# ----------------------------------------------------------------------
# N-ary
# ----------------------------------------------------------------------

NARY_SCHEMAS = [
    Schema.of("key", "a", name="S0"),
    Schema.of("key", "b", name="S1"),
    Schema.of("key", "c", name="S2"),
]


def make_nary_schedules(n_keys=6, per_stream=60):
    import random

    rng = random.Random(11)
    schedules = [[], [], []]
    lo = [0, 0, 0]
    t = 0.0
    for _ in range(per_stream * 3):
        t += rng.random()
        stream = rng.randrange(3)
        if lo[stream] < n_keys - 1 and rng.random() < 0.15:
            schedules[stream].append(
                (t, Punctuation.on_field(NARY_SCHEMAS[stream], "key",
                                         lo[stream], ts=t))
            )
            lo[stream] += 1
            continue
        key = rng.randrange(lo[stream], n_keys)
        schedules[stream].append(
            (t, Tuple(NARY_SCHEMAS[stream], (key, rng.randrange(100)), ts=t))
        )
    return schedules


def nary_multiset(schedules, spec):
    plan = QueryPlan(cost_model=CostModel().scaled(0.001))
    join = NaryPJoin(
        plan.engine, plan.cost_model, NARY_SCHEMAS, ["key"] * 3,
        config=PJoinConfig(purge_threshold=1), governor=spec,
    )
    sink = Sink(plan.engine, plan.cost_model, keep_items=True)
    join.connect(sink)
    for port, schedule in enumerate(schedules):
        plan.add_source(schedule, join, port=port)
    plan.run()
    return Counter(dict(sink.result_multiset())), join


def test_nary_governed_matches_ungoverned():
    schedules = make_nary_schedules()
    expected = Counter(
        a.values + b.values + c.values
        for a, b, c in product(*[
            [item for _t, item in s if isinstance(item, Tuple)]
            for s in schedules
        ])
        if a.values[0] == b.values[0] == c.values[0]
    )
    base, _ = nary_multiset(schedules, None)
    tight, join = nary_multiset(schedules, GovernorSpec(8.0))
    assert base == tight == expected
    assert join.counters()["governor.spills"] > 0


def test_governed_nary_join_pickles():
    """A parallel sweep ships each finished run back pickled.

    The governor keeps every side's purge probe, so the probe must not
    be a closure; after the round trip it must test the restored
    join's own punctuation stores.
    """
    from repro.experiments.harness import run_nary_experiment
    from repro.planner import get_preset
    from repro.workloads.nary import generate_nary_workload

    spec = get_preset("nary_drift").with_overrides(
        n_tuples_per_stream=200, seed=3
    )
    with governed(GovernorSpec(budget_tuples=100)):
        run = run_nary_experiment(
            generate_nary_workload(spec),
            config=PJoinConfig(purge_threshold=8),
        )
    restored = pickle.loads(pickle.dumps(run.join))
    assert restored.counters() == run.join.counters()
    values = range(-5, 300)
    for side, registration in enumerate(restored.governor._sides):
        original = run.join.governor._sides[side].covered_by
        probe = registration.covered_by
        assert [probe(v) for v in values] == [original(v) for v in values]
        stores = {id(covers.__self__) for covers in probe.args[0]}
        assert stores == {
            id(restored.sides[s].store)
            for s in range(restored.n_inputs)
            if s != side
        }


# ----------------------------------------------------------------------
# Sharded: per-shard budget shares must not bend the merged result
# ----------------------------------------------------------------------

def test_sharded_governed_matches_oracle(workload, oracle):
    outcome = run_sharded(
        workload, 2, config=CONFIG, governor=GovernorSpec(TIGHT)
    )
    assert Counter(outcome.result_multiset()) == Counter(
        {values: count for values, count in oracle.items()}
    )
    assert outcome.counters.get("governor.spills", 0) > 0


def test_sharded_unlimited_matches_ungoverned_sharded(workload):
    base = run_sharded(workload, 2, config=CONFIG)
    inf = run_sharded(
        workload, 2, config=CONFIG, governor=GovernorSpec(math.inf)
    )
    assert inf.result_multiset() == base.result_multiset()
    assert inf.duration_ms == base.duration_ms
