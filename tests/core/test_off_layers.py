"""A layer that is off costs a plain run no call.

Without a memory threshold the tuple handlers do not consult the
monitor; without range punctuations the store does not call the range
index to test it for emptiness; and the handlers reach each side's
store directly, not through a wrapper that only forwards.
"""

import pytest

from repro.core.config import PJoinConfig
from repro.core.monitor import Monitor
from repro.core.state import JoinStateSide
from repro.experiments.harness import (
    nary_pjoin_factory,
    pjoin_factory,
    run_join_experiment,
)
from repro.perf.interval import RangeIntervalIndex
from repro.planner import get_preset
from repro.workloads import generate_nary_workload, generate_workload

# __len__ too: without __bool__, a truth test of the index calls it.
OFF_CALLS = (
    (Monitor, "on_insert"),
    (RangeIntervalIndex, "__bool__"),
    (RangeIntervalIndex, "__len__"),
    (JoinStateSide, "covers"),
)


def plain_pjoin_run():
    workload = generate_workload(
        n_tuples_per_stream=300, punct_spacing_a=10, punct_spacing_b=20, seed=3
    )
    return run_join_experiment(pjoin_factory(PJoinConfig(purge_threshold=5)), workload)


def plain_nary_run():
    spec = get_preset("nary_drift").with_overrides(n_tuples_per_stream=300, seed=3)
    return run_join_experiment(
        nary_pjoin_factory(config=PJoinConfig(purge_threshold=8)),
        generate_nary_workload(spec),
    )


@pytest.mark.parametrize("run", [plain_pjoin_run, plain_nary_run], ids=["pjoin", "nary"])
def test_plain_run_makes_no_off_layer_calls(monkeypatch, run):
    calls = []
    for owner, name in OFF_CALLS:
        method = vars(owner).get(name)
        if method is None:
            continue
        label = f"{owner.__name__}.{name}"

        def counted(*args, _method=method, _label=label):
            calls.append(_label)
            return _method(*args)

        monkeypatch.setattr(owner, name, counted)
    result = run()
    assert result.results > 0
    assert result.join.tuples_dropped_on_fly > 0
    assert calls == []
