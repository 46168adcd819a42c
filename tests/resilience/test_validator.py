"""The shared contract validator, policy by policy."""

import pytest

from repro.errors import ContractViolationError, PunctuationError, ResilienceError
from repro.punctuations.punctuation import Punctuation
from repro.resilience.validator import ContractValidator
from repro.sim.engine import SimulationEngine
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "payload")


def punct(value, ts=0.0):
    return Punctuation.on_field(SCHEMA, "key", value, ts=ts)


def tup(value, ts=0.0):
    return Tuple(SCHEMA, (value, 0), ts=ts)


@pytest.fixture
def engine():
    return SimulationEngine()


def tracking(engine, policy):
    return ContractValidator.tracking(
        engine, "j", policy, [SCHEMA, SCHEMA], ["key", "key"]
    )


class TestTrust:
    def test_admits_everything_without_tracking(self, validator=None):
        engine = SimulationEngine()
        validator = tracking(engine, "trust")
        validator.observe_punctuation(punct(1), 0)
        assert validator.admit(tup(1), 1, 0) is True
        assert validator.violations == 0
        assert validator.dead_letters is None


class TestStrict:
    def test_raises_on_violation(self, engine):
        validator = tracking(engine, "strict")
        validator.observe_punctuation(punct(1), 0)
        assert validator.admit(tup(2), 2, 0) is True
        with pytest.raises(ContractViolationError, match="after a punctuation"):
            validator.admit(tup(1), 1, 0)
        assert validator.violations == 1

    def test_error_is_also_a_punctuation_error(self, engine):
        # Pre-resilience callers caught PunctuationError; they still do.
        validator = tracking(engine, "strict")
        validator.observe_punctuation(punct(1), 0)
        with pytest.raises(PunctuationError):
            validator.admit(tup(1), 1, 0)

    def test_sides_are_independent(self, engine):
        validator = tracking(engine, "strict")
        validator.observe_punctuation(punct(1), 0)
        # Side 1 made no promise about value 1.
        assert validator.admit(tup(1), 1, 1) is True


class TestQuarantine:
    def test_violation_goes_to_dead_letters(self, engine):
        validator = tracking(engine, "quarantine")
        validator.observe_punctuation(punct(1), 0)
        assert validator.admit(tup(1), 1, 0) is False
        assert validator.violations == 1
        assert validator.quarantined == 1
        assert len(validator.dead_letters) == 1
        assert validator.dead_letters.quarantined_values() == [1]

    def test_clean_tuples_still_admitted(self, engine):
        validator = tracking(engine, "quarantine")
        validator.observe_punctuation(punct(1), 0)
        assert validator.admit(tup(2), 2, 0) is True
        assert len(validator.dead_letters) == 0


class TestRepair:
    def test_violation_retracts_and_admits(self, engine):
        validator = tracking(engine, "repair")
        validator.observe_punctuation(punct(1), 0)
        assert validator.admit(tup(1), 1, 0) is True
        assert validator.punctuations_retracted == 1
        # The promise is gone: the same value no longer violates.
        assert validator.admit(tup(1), 1, 0) is True
        assert validator.violations == 1

    def test_counters_snapshot(self, engine):
        validator = tracking(engine, "repair")
        validator.observe_punctuation(punct(3), 0)
        validator.admit(tup(3), 3, 0)
        assert validator.counters() == {
            "violations": 1,
            "quarantined": 0,
            "punctuations_retracted": 1,
        }


class TestLegacyAliases:
    def test_legacy_count_is_rejected(self, engine):
        with pytest.raises(ResilienceError):
            tracking(engine, "count")

    def test_is_default_strict(self, engine):
        validator = tracking(engine, "strict")
        assert validator.is_default_strict
        assert not tracking(engine, "quarantine").is_default_strict
