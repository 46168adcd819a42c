"""Plan-independence of the n-ary join result (the safety property).

A plan is only a visitation order over the side hash tables, so *every*
probe-order permutation — and the adaptive planner, which moves between
them mid-run — must produce the identical result multiset.  This is the
property that makes :meth:`NaryPJoin.set_plan` an exact state handoff
and runtime re-optimization safe.
"""

from collections import Counter
from itertools import permutations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint import cover_cut_times
from repro.core.config import PJoinConfig
from repro.experiments.harness import run_nary_experiment
from repro.planner import PlannerSpec, get_preset
from repro.workloads.nary import NaryWorkloadSpec, generate_nary_workload

SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

workload_specs = st.builds(
    NaryWorkloadSpec,
    n_streams=st.just(3),
    n_tuples_per_stream=st.integers(60, 150),
    punct_spacings=st.tuples(
        *[st.one_of(st.none(), st.integers(2, 30).map(float))] * 3
    ),
    active_values=st.integers(1, 8),
    seed=st.integers(0, 100_000),
)


def multiset_of(run):
    return Counter(dict(run.sink.result_multiset()))


def run_with(workload, planner, purge_threshold=4):
    return run_nary_experiment(
        workload,
        config=PJoinConfig(purge_threshold=purge_threshold),
        planner=planner,
        keep_items=True,
    )


@SETTINGS
@given(spec=workload_specs)
def test_every_probe_order_permutation_is_equivalent(spec):
    """All 3! static orders and the adaptive planner agree exactly."""
    workload = generate_nary_workload(spec)
    reference = None
    for order in permutations(range(3)):
        run = run_with(
            workload, PlannerSpec(mode="static", initial_order=order)
        )
        result = multiset_of(run)
        if reference is None:
            reference = result
        else:
            assert result == reference, f"order {order} diverged"
    adaptive = run_with(
        workload, PlannerSpec(mode="adaptive", reopt_interval=1)
    )
    assert multiset_of(adaptive) == reference


def test_adaptive_matches_static_on_the_drift_preset():
    """The showcase workload: switches happen, results do not move."""
    workload = generate_nary_workload(
        get_preset("nary_drift", scale=0.1)
    )
    static = run_with(workload, PlannerSpec(mode="static"), purge_threshold=8)
    adaptive = run_with(
        workload,
        PlannerSpec(mode="adaptive", reopt_interval=2),
        purge_threshold=8,
    )
    assert multiset_of(adaptive) == multiset_of(static)
    assert adaptive.join.reoptimizer.switches >= 1


def test_boundaries_align_with_checkpoint_cover_cuts():
    """The re-plan points are exactly the checkpoint layer's cover cuts."""
    every = 4
    workload = generate_nary_workload(
        n_streams=3,
        n_tuples_per_stream=400,
        punct_spacings=(10.0, 20.0, 30.0),
        seed=3,
    )
    run = run_with(
        workload,
        PlannerSpec(mode="adaptive", reopt_interval=1),
        purge_threshold=every,
    )
    predicted = cover_cut_times(
        workload.schedules, workload.join_fields, every=every
    )
    assert run.join.reoptimizer.boundaries == len(predicted)


def test_uniform_preset_holds_the_identity_order():
    """Symmetric streams give the planner no reason to move."""
    workload = generate_nary_workload(get_preset("nary_uniform", scale=0.1))
    run = run_with(
        workload, PlannerSpec(mode="adaptive", reopt_interval=2),
        purge_threshold=8,
    )
    assert run.join.stream_order == (0, 1, 2)
    assert run.join.reoptimizer.switches == 0
