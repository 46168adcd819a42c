"""A governed tuple pays for its bucket touches and paging, not bookkeeping.

After each insert the governor sums the warm total and starts an
enforcement pass only when that total exceeds the budget, and it reads
the tracer once per fault or pass, not once per item.  A governed XJoin
run (LRU, a budget of 1/16 of a stream, tracing off) shows both while
the governor spills and faults throughout.
"""

from repro.experiments.harness import run_join_experiment, run_options, xjoin_factory
from repro.memory import governor as governor_module
from repro.memory.budget import GovernorSpec
from repro.memory.governor import MemoryGovernor
from repro.workloads import generate_workload

TUPLES = 300


def governed_xjoin_run():
    workload = generate_workload(n_tuples_per_stream=TUPLES, seed=3)
    with run_options(governor=GovernorSpec(budget_tuples=TUPLES / 16)):
        return run_join_experiment(xjoin_factory(), workload)


def test_governed_run_enforces_only_over_budget(monkeypatch):
    over_budget = []  # one entry per enforcement pass: did it start over?
    enforce = vars(MemoryGovernor)["_enforce"]

    def counted_enforce(self, *args):
        over_budget.append(self.usage() > self.budget_tuples)
        return enforce(self, *args)

    monkeypatch.setattr(MemoryGovernor, "_enforce", counted_enforce)

    lookups = [0]
    get_tracer = governor_module.get_tracer

    def counted_get_tracer(engine):
        lookups[0] += 1
        return get_tracer(engine)

    monkeypatch.setattr(governor_module, "get_tracer", counted_get_tracer)

    run = governed_xjoin_run()
    governor = run.join.governor
    assert governor.policy_name == "lru"
    assert governor.spills > 0
    assert governor.faults > 0
    assert over_budget and all(over_budget)
    assert lookups[0] <= governor.faults + len(over_budget)
