"""The check registry and ``repro check``: every check against its golden."""

import json
from pathlib import Path

import pytest

from repro import checks
from repro.checks import CHECKS
from repro.cli import main
from repro.experiments.harness import active_options

GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize("name", list(CHECKS))
def test_check_passes_against_its_golden(name, capsys):
    assert main(["check", name, "--goldens", str(GOLDENS)]) == 0
    assert f"{name}: ok" in capsys.readouterr().out


def test_every_check_has_a_committed_golden():
    assert [n for n in CHECKS if not (GOLDENS / f"{n}.json").exists()] == []


def test_unknown_check_exits_2(capsys):
    assert main(["check", "nosuch", "--goldens", str(GOLDENS)]) == 2
    assert "unknown checks: ['nosuch']" in capsys.readouterr().err


def test_missing_golden_fails_and_names_its_path(tmp_path, capsys):
    assert main(["check", "chaos_gentle", "--goldens", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"missing golden: {tmp_path / 'chaos_gentle.json'}" in err


def test_drifted_key_fails_and_names_it(tmp_path, capsys):
    golden = json.loads((GOLDENS / "chaos_gentle.json").read_text())
    golden["results_produced"] += 1
    (tmp_path / "chaos_gentle.json").write_text(json.dumps(golden))
    assert main(["check", "chaos_gentle", "--goldens", str(tmp_path)]) == 1
    drift = [line for line in capsys.readouterr().err.splitlines()
             if "drift in" in line]
    assert len(drift) == 1
    assert "drift in chaos_gentle.results_produced" in drift[0]


def test_golden_not_as_rendered_fails_without_drift(tmp_path, capsys):
    # Every value holds, but the bytes are not what the regenerating
    # one-liner would write.
    golden = json.loads((GOLDENS / "chaos_gentle.json").read_text())
    path = tmp_path / "chaos_gentle.json"
    path.write_text(json.dumps(golden, indent=2) + "\n")
    assert main(["check", "chaos_gentle", "--goldens", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "drift in" not in err
    assert f"{path} is not as the checks render it" in err


def test_failed_condition_exits_1(monkeypatch, capsys):
    golden = json.loads((GOLDENS / "chaos_gentle.json").read_text())
    monkeypatch.setitem(CHECKS, "chaos_gentle", lambda: (golden, ["it broke"]))
    assert main(["check", "chaos_gentle", "--goldens", str(GOLDENS)]) == 1
    assert "chaos_gentle: it broke" in capsys.readouterr().err


class StubRun:
    def __init__(self, results):
        self.results = results

    def result_multiset(self):
        return {(value,): 1 for value in self.results}

    def punctuation_multiset(self):
        return {}


def test_diverged_variant_fails():
    kept, failures = checks.run_variants(
        {
            "reference": lambda: StubRun([1, 2]),
            "same": lambda: StubRun([2, 1]),
            "lost one": lambda: StubRun([1]),
        },
        {(1,): 1, (2,): 1},
        lambda run: len(run.results),
    )
    assert failures == ["lost one: output differs from the reference run's"]
    assert kept == {"reference": 2, "same": 2, "lost one": 1}


def test_reference_run_must_match_the_oracle():
    # Every variant agrees with the first, but the first lost a result.
    _kept, failures = checks.run_variants(
        {"reference": lambda: StubRun([1]), "same": lambda: StubRun([1])},
        {(1,): 1, (2,): 1},
        lambda run: None,
    )
    assert failures == ["reference: results differ from the oracle's"]


@pytest.mark.parametrize("name", ["memory_smoke", "plan_smoke"])
def test_check_fails_on_a_wrong_oracle(name, monkeypatch):
    # A stub oracle that is missing one result: the check must fail
    # although every variant agrees with the first.
    oracles = {
        "memory_smoke": "reference_join_multiset",
        "plan_smoke": "reference_nway_join_multiset",
    }
    oracle = getattr(checks, oracles[name])

    def missing_one(*args):
        multiset = oracle(*args)
        multiset[next(iter(multiset))] -= 1
        return multiset

    monkeypatch.setattr(checks, oracles[name], missing_one)
    _summary, failures = CHECKS[name]()
    assert failures and all("differ from the oracle's" in f for f in failures)


def test_memory_unlimited_budget_must_keep_the_finish_time(monkeypatch):
    run_join_experiment = checks.run_join_experiment

    def late_when_unlimited(*args, **kwargs):
        run = run_join_experiment(*args, **kwargs)
        governor = active_options().governor
        if governor is not None and governor.unlimited:
            run.duration_ms += 1.0
        return run

    monkeypatch.setattr(checks, "run_join_experiment", late_when_unlimited)
    _summary, failures = checks.memory_smoke()
    assert [failure.split(":")[0] for failure in failures] == ["PJoin-1", "XJoin"]
    assert all("unlimited budget moved" in failure for failure in failures)


def test_plan_must_switch_and_beat_static(monkeypatch):
    # An adaptive planner that re-plans too rarely ever to act.
    planner_spec = checks.PlannerSpec

    def never_replans(mode, reopt_interval=1):
        return planner_spec(mode=mode, reopt_interval=1_000_000)

    monkeypatch.setattr(checks, "PlannerSpec", never_replans)
    summary, failures = checks.plan_smoke()
    assert summary["switches"] == 0
    assert failures == [
        "adaptive: the planner never switched orders",
        "adaptive: did not finish before static",
    ]
