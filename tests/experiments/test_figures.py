"""Integration tests for the figure presets.

Fast smoke runs (small scale) check that every preset executes, labels
its runs and renders a report; the heavier shape tests — the paper's
qualitative claims — run a subset of figures at the scale at which the
claims are meaningful.  The full-scale suite lives in ``benchmarks/``.
"""

import pytest

from repro.experiments import figures
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.figures import ALL_FIGURES, Check, FigureResult
from repro.experiments.harness import run_options

# The ablations whose checks read per-join quantities (index builds,
# propagation runs, on-the-fly drops, disk writes, stage-2 runs).
PER_JOIN_ABLATIONS = [
    "ablation_index_building",
    "ablation_propagation_mode",
    "ablation_on_the_fly_drop",
    "ablation_memory_threshold",
    "ablation_reactive_disk_join",
]


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == (
            {f"figure{i}" for i in range(5, 15)}
            | {"fig_memory_sweep", "fig_nary_adaptive", "fig_skew_sweep"}
        )

    def test_all_seven_ablations_registered(self):
        assert len(ALL_ABLATIONS) == 7


@pytest.mark.parametrize("name", sorted(ALL_FIGURES))
def test_figure_smoke(name):
    """Every preset runs end to end at tiny scale and renders."""
    result = ALL_FIGURES[name](scale=0.06)
    assert isinstance(result, FigureResult)
    assert result.runs
    assert result.checks
    report = result.render()
    assert result.figure_id in report
    assert "Shape checks" in report


@pytest.mark.parametrize("name", PER_JOIN_ABLATIONS)
def test_ablation_sums_its_quantities_over_shards(name):
    """Sharded runs sum each checked quantity over the shards.

    One shard replays the unsharded run, so its check reports must read
    exactly as the unsharded ones do.
    """
    plain = ALL_ABLATIONS[name](scale=0.06)
    with run_options(shards=1):
        one_shard = ALL_ABLATIONS[name](scale=0.06)
    with run_options(shards=2):
        two_shards = ALL_ABLATIONS[name](scale=0.06)
    assert isinstance(two_shards, FigureResult)
    assert two_shards.checks
    assert [(c.description, c.passed) for c in one_shard.checks] == [
        (c.description, c.passed) for c in plain.checks
    ]


class TestShapesAtModestScale:
    """The paper's claims that already hold at reduced scale."""

    def test_figure5_state_shape(self):
        result = figures.figure5(scale=0.25)
        assert result.all_passed, [c for c in result.checks if not c.passed]

    def test_figure6_state_ordering(self):
        result = figures.figure6(scale=0.25)
        assert result.all_passed, [c for c in result.checks if not c.passed]

    def test_figure8_purge_memory_shape(self):
        result = figures.figure8(scale=0.25)
        assert result.all_passed, [c for c in result.checks if not c.passed]

    def test_figure10_asymmetric_state_shape(self):
        result = figures.figure10(scale=0.25)
        assert result.all_passed, [c for c in result.checks if not c.passed]

    def test_figure14_propagation_shape(self):
        result = figures.figure14(scale=0.25)
        assert result.all_passed, [c for c in result.checks if not c.passed]


class TestFigureResultApi:
    def test_run_lookup_by_label(self):
        result = figures.figure5(scale=0.06)
        assert result.run("PJoin-1").label == "PJoin-1"
        with pytest.raises(KeyError):
            result.run("nope")

    def test_check_repr(self):
        assert repr(Check("claim", True)) == "[PASS] claim"
        assert repr(Check("claim", False)) == "[FAIL] claim"

    def test_summary_table_has_all_variants(self):
        result = figures.figure5(scale=0.06)
        table = result.summary_table()
        assert "PJoin-1" in table and "XJoin" in table
