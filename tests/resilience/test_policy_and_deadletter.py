"""Fault-policy vocabulary and the dead-letter store."""

import pytest

from repro.errors import ReproError, ResilienceError
from repro.resilience.deadletter import (
    DEFAULT_SAMPLE_CAPACITY,
    REASON_CONTRACT_VIOLATION,
    DeadLetterStore,
)
from repro.resilience.policy import FAULT_POLICIES, normalize_policy


class TestNormalizePolicy:
    def test_canonical_names_pass_through(self):
        for policy in FAULT_POLICIES:
            assert normalize_policy(policy) == policy

    def test_legacy_validate_inputs_spellings(self):
        for legacy in ("raise", "count", "off"):
            with pytest.raises(ResilienceError, match="fault policy"):
                normalize_policy(legacy)

    def test_unknown_policy_raises(self):
        with pytest.raises(ResilienceError, match="fault policy"):
            normalize_policy("lenient")

    def test_resilience_error_is_a_repro_error(self):
        assert issubclass(ResilienceError, ReproError)


class TestDeadLetterStore:
    def test_counts_by_reason_and_side(self):
        dlq = DeadLetterStore(name="j.dlq")
        dlq.add("t1", 0, REASON_CONTRACT_VIOLATION, 5, now=1.0)
        dlq.add("t2", 1, REASON_CONTRACT_VIOLATION, 6, now=2.0)
        dlq.add("t3", 0, "duplicate", 5, now=3.0)
        assert len(dlq) == 3
        counters = dlq.counters()
        assert counters["quarantined"] == 3
        assert counters[f"reason.{REASON_CONTRACT_VIOLATION}"] == 2
        assert counters["reason.duplicate"] == 1
        assert counters["side0"] == 2
        assert counters["side1"] == 1

    def test_quarantined_values_in_order(self):
        dlq = DeadLetterStore(name="j.dlq")
        dlq.add("t1", 0, REASON_CONTRACT_VIOLATION, 5, now=1.0)
        dlq.add("t2", 0, REASON_CONTRACT_VIOLATION, 7, now=2.0)
        assert dlq.quarantined_values() == [5, 7]

    def test_samples_are_bounded_but_counts_exact(self):
        dlq = DeadLetterStore(name="j.dlq", sample_capacity=4)
        for i in range(100):
            dlq.add(f"t{i}", 0, REASON_CONTRACT_VIOLATION, i, now=float(i))
        assert len(dlq) == 100
        assert len(dlq.entries) == 4
        assert dlq.counters()["quarantined"] == 100

    def test_default_sample_capacity(self):
        assert DeadLetterStore(name="x").sample_capacity == DEFAULT_SAMPLE_CAPACITY
