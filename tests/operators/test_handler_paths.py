"""Each join's item handler under every optional layer.

Every join builds one item handler at construction, whatever layers
are attached, and tags it with the layers it carries; the first test
checks that.  The last checks which fault policies hand every tuple to
the contract validator.

The figure-5, governed, chaos and skew goldens pin the default PJoin
and XJoin, governed runs, the chaos scenarios and the sharded skew
smoke.  This golden pins the configurations none of them reaches: a
traced PJoin, every fault policy on an input with injected contract
violations, relocation, no on-the-fly drop, adaptive buckets, the
windowed join, the symmetric hash join and the n-ary join with a
static or adaptive plan.  Each case records the join's counters, the
number of simulated events, the virtual finish time and digests of the
ordered results (values and timestamps) and punctuations; the traced
case also records a digest of its trace events.

A change that is meant to move these numbers regenerates the golden::

    PYTHONPATH=src python tests/operators/test_handler_paths.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.core.pjoin import PJoin
from repro.core.windowed import WindowedPJoin
from repro.errors import ContractViolationError
from repro.experiments.harness import run_join_experiment
from repro.memory.budget import GovernorSpec
from repro.obs.trace import Tracer
from repro.operators import fastpath
from repro.operators.base import Operator
from repro.operators.shj import SymmetricHashJoin
from repro.operators.xjoin import XJoin
from repro.planner import PlannerSpec, get_preset
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.skew.manager import SkewSpec
from repro.tuples.schema import Schema
from repro.workloads import generate_nary_workload, generate_workload
from repro.workloads.faults import inject_punctuation_violation

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "handler_paths.json"

# join -> the optional layers it supports
LAYERS = {
    "pjoin": ("traced", "governed", "quarantine", "skew"),
    "windowed": ("traced", "quarantine", "skew"),
    "xjoin": ("traced", "governed", "quarantine"),
    "shj": ("traced", "governed", "quarantine"),
    "nary": ("traced", "governed", "quarantine", "adaptive"),
}
BINARY_JOINS = {
    "pjoin": PJoin,
    "windowed": WindowedPJoin,
    "xjoin": XJoin,
    "shj": SymmetricHashJoin,
}


def build_join(kind, layer):
    """A *kind* join built with one optional *layer* (or none)."""
    engine = SimulationEngine()
    if layer == "traced":
        engine.tracer = Tracer()
    options = {
        "governed": {"governor": GovernorSpec(100)},
        "skew": {"skew": SkewSpec(adaptive=True)},
        "adaptive": {"planner": PlannerSpec(mode="adaptive")},
    }.get(layer, {})
    if layer == "quarantine":
        if kind in ("xjoin", "shj"):
            options["fault_policy"] = "quarantine"
        else:
            options["config"] = PJoinConfig(fault_policy="quarantine")
    schemas = [Schema.of("key", "v", name=f"S{i}") for i in range(3)]
    if kind == "nary":
        return NaryPJoin(engine, CostModel(), schemas, ["key"] * 3, **options)
    return BINARY_JOINS[kind](
        engine, CostModel(), schemas[0], schemas[1], "key", "key", **options
    )


@pytest.mark.parametrize(
    "kind,layer",
    [(kind, layer) for kind, layers in LAYERS.items() for layer in ("default", *layers)],
)
def test_every_join_installs_one_tagged_handler(kind, layer):
    join = build_join(kind, layer)
    handle = vars(join)["handle"]
    # Tracing and the adaptive planner leave the handler as it is.
    expected = {
        "governed": {"governor"},
        "quarantine": {"resilience"},
        "skew": {"skew"},
    }.get(layer, set())
    if kind == "windowed":
        expected.add("window")
    assert set(fastpath.handler_layers(handle)) == expected
    assert fastpath.is_fastpath(handle) == (not expected)
    assert not [
        cls.__name__
        for cls in type(join).__mro__
        if cls is not Operator and {"handle", "_handle_tuple"} & set(vars(cls))
    ]


# Eager index and pair-driven propagation, so punctuations reach the sink.
PUNCTUATED = PJoinConfig(index_building="eager", propagation_mode="push_pairs")
NARY = PJoinConfig(purge_threshold=4)


def binary_input():
    return generate_workload(
        n_tuples_per_stream=400, punct_spacing_a=20, punct_spacing_b=20,
        active_values=12, seed=5,
    )


def inject_violations(workload):
    """One contract violation injected on every stream of *workload*."""
    return [
        inject_punctuation_violation(schedule, schema, field, seed=side).schedule
        for side, (schedule, schema, field) in enumerate(
            zip(workload.schedules, workload.schemas, workload.join_fields)
        )
    ]


def violated():
    workload = binary_input()
    return type(workload)(workload.spec, *inject_violations(workload))


def nary_input():
    spec = get_preset("nary_drift").with_overrides(
        n_tuples_per_stream=300, seed=3
    )
    return generate_nary_workload(spec)


def violated_nary():
    workload = nary_input()
    return type(workload)(workload.spec, inject_violations(workload))


def pjoin(config, cls=PJoin, **kwargs):
    def build(plan, workload):
        return cls(
            plan.engine, plan.cost_model,
            workload.schemas[0], workload.schemas[1],
            workload.join_fields[0], workload.join_fields[1],
            config=config, **kwargs,
        )

    return build


def binary(cls, **kwargs):
    def build(plan, workload):
        return cls(
            plan.engine, plan.cost_model,
            workload.schemas[0], workload.schemas[1],
            workload.join_fields[0], workload.join_fields[1],
            **kwargs,
        )

    return build


def nary(config, planner=None):
    def build(plan, workload):
        return NaryPJoin(
            plan.engine, plan.cost_model, workload.schemas, workload.join_fields,
            config=config, planner=planner,
        )

    return build


def with_policy(config, policy):
    return config.with_overrides(fault_policy=policy)


# case -> (join factory, input builder)
CASES = {
    "pjoin/traced": (pjoin(PUNCTUATED), binary_input),
    "pjoin/quarantine": (pjoin(with_policy(PUNCTUATED, "quarantine")), violated),
    "pjoin/repair": (pjoin(with_policy(PUNCTUATED, "repair")), violated),
    "pjoin/trust": (pjoin(with_policy(PUNCTUATED, "trust")), violated),
    "pjoin/memory_threshold": (
        pjoin(PUNCTUATED.with_overrides(memory_threshold=60)), binary_input,
    ),
    "pjoin/no_drop": (
        pjoin(PUNCTUATED.with_overrides(on_the_fly_drop=False)), binary_input,
    ),
    "pjoin/skew": (
        pjoin(
            PJoinConfig(purge_threshold=10),
            skew=SkewSpec(adaptive=True, min_split_occupancy=8),
        ),
        binary_input,
    ),
    "windowed": (
        pjoin(PUNCTUATED, cls=WindowedPJoin, window_ms=40.0), binary_input,
    ),
    "shj/default": (binary(SymmetricHashJoin), binary_input),
    "shj/quarantine": (binary(SymmetricHashJoin, fault_policy="quarantine"), violated),
    "xjoin/memory_threshold": (binary(XJoin, memory_threshold=60), binary_input),
    "xjoin/quarantine": (binary(XJoin, fault_policy="quarantine"), violated),
    "nary/static": (nary(NARY, PlannerSpec(mode="static")), nary_input),
    "nary/adaptive": (
        nary(NARY, PlannerSpec(mode="adaptive", reopt_interval=2)), nary_input,
    ),
    "nary/quarantine": (nary(with_policy(NARY, "quarantine")), violated_nary),
}

TRACED_CASE = "pjoin/traced"
STRICT_CASE = "pjoin/strict"


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def summarize(case):
    """Counters, event count, finish time and output digests of one case."""
    factory, make_input = CASES[case]
    tracer = Tracer() if case == TRACED_CASE else None
    run = run_join_experiment(
        factory, make_input(), label=case, keep_items=True, tracer=tracer
    )
    out = {
        "counters": run.join.counters(),
        "events_executed": run.manifest["engine"]["events_executed"],
        "finish_ms": run.duration_ms,
        "results": digest([(t.values, t.ts) for t in run.sink.results]),
        "punctuations": digest([(repr(p), p.ts) for p in run.sink.punctuations]),
    }
    if tracer is not None:
        out["trace"] = digest([event.to_dict() for event in tracer])
    return out


def summarize_strict():
    """Strict PJoin on the violated input: the first violation raises."""
    joins = []

    def build(plan, workload):
        joins.append(pjoin(PUNCTUATED)(plan, workload))
        return joins[-1]

    with pytest.raises(ContractViolationError):
        run_join_experiment(build, violated(), label=STRICT_CASE)
    return {"violations": joins[0].validator.violations}


def summarize_all():
    out = {case: summarize(case) for case in CASES}
    out[STRICT_CASE] = summarize_strict()
    return out


def render(summaries):
    return json.dumps(summaries, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([*CASES, STRICT_CASE])


@pytest.mark.parametrize("case", sorted(CASES))
def test_handler_matches_golden(case, golden):
    # Round-trip through JSON so tuples and float keys compare as stored.
    assert json.loads(render(summarize(case))) == golden[case]


def test_strict_violation_raises_once(golden):
    assert summarize_strict() == golden[STRICT_CASE] == {"violations": 1}


@pytest.mark.parametrize("policy", ["strict", "quarantine", "repair", "trust"])
@pytest.mark.parametrize("kind", ["pjoin", "nary"])
def test_validator_calls_under_each_policy(kind, policy):
    """On a clean input only quarantine and repair call ``admit``.

    Strict, the default, checks the contract with one inline ``covers``
    probe and calls the validator only on a violation; trust checks
    nothing.  Quarantine and repair hand every tuple to the validator,
    so their cost shows in the profiler's resilience layer.
    """
    if kind == "pjoin":
        factory = pjoin(with_policy(PUNCTUATED, policy))
        inputs = binary_input()
    else:
        factory = nary(with_policy(NARY, policy))
        inputs = nary_input()
    calls = []

    def build(plan, workload):
        join = factory(plan, workload)
        admit = join.validator.admit

        def counting_admit(*args):
            calls.append(args)
            return admit(*args)

        join.validator.admit = counting_admit
        return join

    join = run_join_experiment(build, inputs, label=policy).join
    tuples = join.probes if kind == "pjoin" else sum(join.side_tuples_in)
    assert tuples > 0
    assert len(calls) == (tuples if policy in ("quarantine", "repair") else 0)


if __name__ == "__main__":
    GOLDEN.write_text(render(summarize_all()))
    print(f"wrote {GOLDEN}")
