"""CLI surface of the memory governor: its check and the budget flags."""

from pathlib import Path

import pytest

from repro import checks
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


class TestMemoryCommand:
    """The old ``repro memory`` smoke, now ``repro check memory_smoke``."""

    def test_smoke_passes_and_prints_table(self):
        summary, failures = checks.memory_smoke()
        assert failures == []
        for algo in ("PJoin-1", "XJoin"):
            row = {
                tag: (summary[f"{algo} b={tag}.results"],
                      summary[f"{algo} b={tag}.spills"],
                      summary[f"{algo} b={tag}.finish_ms"])
                for tag in ("none", "inf", "100")
            }
            assert row["inf"] == row["none"]
            assert row["none"][1] == 0
            assert row["100"][0] == row["none"][0]
            assert row["100"][1] > 0

    def test_check_flag_exits_zero_on_pass(self, monkeypatch, capsys):
        # Without --goldens, `repro check` reads tests/goldens in the cwd.
        monkeypatch.chdir(REPO)
        assert main(["check", "memory_smoke"]) == 0
        assert "memory_smoke: ok" in capsys.readouterr().out


class TestBudgetFlagParsing:
    def test_garbage_budget_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "figure6", "--memory-budget", "garbage"])
        assert excinfo.value.code == 2
        assert "memory budget" in capsys.readouterr().err

    def test_bad_policy_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--eviction-policy", "bogus"])
        assert excinfo.value.code == 2


class TestFiguresWithBudget:
    def test_governed_figure_runs(self, capsys):
        code = main(
            ["figures", "figure6", "--scale", "0.06",
             "--memory-budget", "64", "--eviction-policy", "lru"]
        )
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_budget_crosses_parallel_jobs(self, assert_jobs_match_serial):
        # fig_nary_adaptive ships a governed NaryPJoin back from a worker.
        assert assert_jobs_match_serial(
            "figure6", "fig_nary_adaptive", "--scale", "0.06",
            "--memory-budget", "100",
        ) == 0
