"""The skew layer's smoke: ``repro check skew_smoke``."""

from pathlib import Path

import pytest

from repro import checks
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def skew_smoke():
    """skew_smoke's summary and failures, and the runs of its variants."""
    runs = {}
    run_variants = checks.run_variants

    def recorded(label, variant):
        def run():
            runs[label] = variant()
            return runs[label]

        return run

    def recording(variants, *args):
        return run_variants(
            {label: recorded(label, variant) for label, variant in variants.items()},
            *args,
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "run_variants", recording)
        summary, failures = checks.skew_smoke()
    return summary, failures, runs


class TestSkewCommand:
    """The old ``repro skew`` smoke, now the skew_smoke check."""

    def test_smoke_passes_and_prints_tables(self, skew_smoke):
        summary, failures, _runs = skew_smoke
        assert failures == []
        assert summary["adaptive.splits"] > 0
        assert summary["hotkey.hot_activations"] > 0
        assert summary["hotkey.replica_copies"] > 0

    def test_variants_stay_equivalent(self, skew_smoke):
        _summary, _failures, runs = skew_smoke
        assert list(runs) == [
            "static", "adaptive", "sharded static", "sharded hot-key",
        ]
        reference = runs["static"].sink.result_multiset()
        assert reference
        for run in runs.values():
            assert run.sink.result_multiset() == reference


class TestGoldenGate:
    def test_default_parameters_match_committed_golden(self, monkeypatch):
        """The committed golden matches a default-parameter run.

        ``repro check`` without ``--goldens`` reads ``tests/goldens``
        from the repo root, as a developer runs it before a push.
        """
        monkeypatch.chdir(REPO)
        assert main(["check", "skew_smoke"]) == 0
