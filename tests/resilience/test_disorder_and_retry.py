"""The disorder buffer and the transient-disk-fault retry machinery."""

import pytest

from repro.errors import ResilienceError, RetryExhaustedError, TransientIOError
from repro.punctuations.patterns import Constant
from repro.punctuations.punctuation import Punctuation
from repro.resilience.disorder import DisorderBuffer
from repro.resilience.retry import (
    DiskFaultProfile,
    RetryPolicy,
    maybe_injector,
)
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key")


def item(ts):
    return Tuple(SCHEMA, (int(ts),), ts=ts)


def punct(ts):
    return Punctuation(SCHEMA, [Constant(int(ts))], ts=ts)


class TestDisorderBuffer:
    def test_reorders_within_slack(self):
        buf = DisorderBuffer(slack_ms=10.0)
        released = []
        # Items arrive 3, 1, 2 (timestamps) but within 10ms of each other.
        released += buf.push(item(3.0), arrival_ts=3.0)
        released += buf.push(item(1.0), arrival_ts=4.0)
        released += buf.push(item(2.0), arrival_ts=5.0)
        released += buf.flush()
        assert [it.ts for it in released] == [1.0, 2.0, 3.0]
        assert buf.reordered > 0
        assert buf.late_releases == 0

    def test_releases_only_past_watermark(self):
        buf = DisorderBuffer(slack_ms=5.0)
        assert buf.push(item(0.0), arrival_ts=0.0) == []
        ready = buf.push(item(10.0), arrival_ts=10.0)
        # Watermark is 10 - 5 = 5: only the ts=0 item is safe to release.
        assert [it.ts for it in ready] == [0.0]
        assert buf.held == 1

    def test_late_beyond_slack_is_released_and_counted(self):
        buf = DisorderBuffer(slack_ms=2.0)
        out = []
        out += buf.push(item(0.0), arrival_ts=0.0)
        out += buf.push(item(10.0), arrival_ts=10.0)
        out += buf.push(item(20.0), arrival_ts=20.0)  # releases ts=10
        # ts=1 arrives 19ms late — far beyond the 2ms slack.
        out += buf.push(item(1.0), arrival_ts=20.0)
        out += buf.flush()
        assert buf.late_releases == 1
        # Nothing is ever dropped, even when hopelessly late.
        assert sorted(it.ts for it in out) == [0.0, 1.0, 10.0, 20.0]

    def test_tuple_goes_before_a_punctuation_with_its_timestamp(self):
        """A punctuation carries its preceding tuple's timestamp, so a
        tuple displaced past its key's punctuation ties with it and must
        come back in front of it."""
        buf = DisorderBuffer(slack_ms=10.0)
        closing, straggler = punct(5.0), item(5.0)
        out = buf.push(closing, arrival_ts=5.0)
        out += buf.push(straggler, arrival_ts=6.0)
        out += buf.flush()
        assert out == [straggler, closing]
        assert buf.late_releases == 0

    def test_tuple_after_a_released_tied_punctuation_is_late(self):
        buf = DisorderBuffer(slack_ms=0.0)
        closing, straggler = punct(5.0), item(5.0)
        out = buf.push(closing, arrival_ts=5.0)
        out += buf.push(straggler, arrival_ts=6.0)
        assert out == [closing, straggler]
        assert buf.late_releases == 1

    def test_counters_snapshot(self):
        buf = DisorderBuffer(slack_ms=4.0)
        buf.push(item(1.0), arrival_ts=1.0)
        buf.push(item(2.0), arrival_ts=2.0)
        counters = buf.counters()
        assert counters["items_buffered"] == 2
        assert counters["slack_ms"] == 4.0
        assert counters["max_held"] == 2


class TestRetry:
    def test_rate_zero_never_faults(self):
        injector = DiskFaultProfile(failure_rate=0.0).make_injector()
        for _ in range(100):
            assert injector.charge("write") == (0.0, 0)
        assert injector.faults_injected == 0

    def test_fault_penalty_is_deterministic(self):
        profile = DiskFaultProfile(failure_rate=0.5, outage_ms=1.0, seed=3)
        a, b = profile.make_injector(), profile.make_injector()
        charges_a = [a.charge("write") for _ in range(200)]
        charges_b = [b.charge("write") for _ in range(200)]
        assert charges_a == charges_b
        assert a.faults_injected == b.faults_injected > 0
        assert a.retries == b.retries > 0

    def test_penalty_covers_the_outage(self):
        profile = DiskFaultProfile(failure_rate=1.0, outage_ms=3.0, seed=0)
        injector = profile.make_injector()
        penalty, retries = injector.charge("read")
        assert penalty >= 3.0
        assert retries >= 1
        assert injector.backoff_time_ms == pytest.approx(penalty)

    def test_exhausted_budget_raises_transient_io_error(self):
        profile = DiskFaultProfile(
            failure_rate=1.0,
            outage_ms=10_000.0,
            retry=RetryPolicy(max_retries=3, initial_backoff_ms=0.5),
            seed=0,
        )
        injector = profile.make_injector()
        with pytest.raises(TransientIOError):
            injector.charge("write")

    def test_maybe_injector_skips_inert_profiles(self):
        assert maybe_injector(None) is None
        assert maybe_injector(DiskFaultProfile(failure_rate=0.0)) is None
        assert maybe_injector(DiskFaultProfile(failure_rate=0.1)) is not None


class TestRetryBudget:
    """The capped *total* retry budget across a whole run."""

    def test_exhaustion_error_is_a_transient_io_error(self):
        # Pre-existing handlers that catch TransientIOError keep working.
        assert issubclass(RetryExhaustedError, TransientIOError)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_budget(self, bad):
        with pytest.raises(ResilienceError, match="max_total_retries"):
            RetryPolicy(max_total_retries=bad)

    def test_spent_budget_fails_fast(self):
        profile = DiskFaultProfile(
            failure_rate=1.0,
            outage_ms=1.0,
            retry=RetryPolicy(initial_backoff_ms=1.0, max_total_retries=3),
            seed=0,
        )
        injector = profile.make_injector()
        survived = 0
        with pytest.raises(RetryExhaustedError, match="total retry budget"):
            for _ in range(100):
                injector.charge("write")
                survived += 1
        # Each surviving op pays exactly one 1ms retry, so a budget of 3
        # rides out three faults and the fourth fails fast, uncharged.
        assert survived == 3
        assert injector.retries == 3
        assert injector.faults_injected == 4
        assert injector.counters()["retry.exhausted"] == 1

    def test_budget_never_overcharged_mid_outage(self):
        # A long outage needs several retries per fault; the budget cap
        # must stop the backoff loop partway without overshooting.
        budget = 5
        profile = DiskFaultProfile(
            failure_rate=1.0,
            outage_ms=10.0,
            retry=RetryPolicy(
                initial_backoff_ms=4.0, max_total_retries=budget
            ),
            seed=0,
        )
        injector = profile.make_injector()
        injector.charge("read")  # two retries (4 + 8 ms >= 10 ms)
        with pytest.raises(RetryExhaustedError, match="mid-outage"):
            for _ in range(100):
                injector.charge("read")
        assert injector.retries <= budget
        assert injector.counters()["retry.exhausted"] == 1

    def test_per_operation_exhaustion_raises_same_type(self):
        profile = DiskFaultProfile(
            failure_rate=1.0,
            outage_ms=10_000.0,
            retry=RetryPolicy(max_retries=3, initial_backoff_ms=0.5),
            seed=0,
        )
        injector = profile.make_injector()
        with pytest.raises(RetryExhaustedError, match="still failing"):
            injector.charge("write")
        assert injector.counters()["retry.exhausted"] == 1

    def test_default_policy_has_no_total_cap(self):
        # No budget set: behaviour is identical to the pre-budget code —
        # a long fault-free-ish run never fails fast.
        profile = DiskFaultProfile(failure_rate=0.5, outage_ms=1.0, seed=7)
        injector = profile.make_injector()
        for _ in range(500):
            injector.charge("write")
        assert injector.retries > 0
        assert injector.counters()["retry.exhausted"] == 0
