"""CLI surface of the memory governor: `repro memory` and the flags."""

import pytest

from repro.cli import main


class TestMemoryCommand:
    def test_smoke_passes_and_prints_table(self, capsys):
        code = main(["memory", "--tuples", "400", "--budget", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PJoin-1" in out and "XJoin" in out
        assert "b=60" in out

    def test_check_flag_exits_zero_on_pass(self, capsys):
        assert main(
            ["memory", "--tuples", "400", "--budget", "60", "--check"]
        ) == 0
        assert "memory governor smoke passed" in capsys.readouterr().out

    def test_infinite_budget_is_rejected(self, capsys):
        assert main(["memory", "--tuples", "400", "--budget", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_eviction_policy_is_accepted(self, capsys):
        code = main(
            ["memory", "--tuples", "400", "--budget", "60",
             "--eviction-policy", "punctuation-aware"]
        )
        assert code == 0


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
