"""The shared punctuation-contract validator.

Before the resilience layer, PJoin was the only operator that checked
the punctuation contract, with its own inline copy of the logic; XJoin
and the symmetric hash join trusted their sources blindly, and the
n-ary join carried a second copy.  This module is the single shared
implementation: every join owns one :class:`ContractValidator`, hands
it each arriving tuple's join value, and gets back the fault-policy
decision — admit, quarantine (dead-letter), or repair (retract the
broken promise).

The validator checks the contract against per-side *contract views*:

* :class:`StateSideContract` wraps a PJoin
  :class:`~repro.core.state.JoinStateSide` — the punctuation set the
  join already maintains is the authority, and ``repair`` retraction
  heals the punctuation index too;
* :class:`TrackedSideContract` owns a private
  :class:`~repro.punctuations.store.PunctuationStore` for operators
  that do not otherwise keep punctuations (XJoin, SHJ) — the validator
  must be shown every arriving punctuation via
  :meth:`ContractValidator.observe_punctuation`;
* :class:`InertSideContract` never covers anything — used for the
  ``trust`` policy so the hot path stays exactly as cheap as before.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ContractViolationError
from repro.obs.trace import get_tracer
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import PunctuationStore, is_join_exploitable
from repro.resilience.deadletter import (
    REASON_CONTRACT_VIOLATION,
    DeadLetterStore,
)
from repro.resilience.policy import QUARANTINE, REPAIR, STRICT, TRUST, normalize_policy
from repro.tuples.schema import Schema


class InertSideContract:
    """The no-op contract view: nothing is ever covered."""

    __slots__ = ()

    def covers(self, join_value: Any) -> bool:
        return False

    def retract(self, join_value: Any) -> int:
        return 0

    def observe(self, punct: Punctuation) -> None:
        pass


class StateSideContract:
    """Contract view over a PJoin side's own punctuation set.

    *side* is a :class:`repro.core.state.JoinStateSide` (duck-typed so
    the resilience layer stays importable below :mod:`repro.core`).
    """

    __slots__ = ("side",)

    def __init__(self, side: Any) -> None:
        self.side = side

    def covers(self, join_value: Any) -> bool:
        return self.side.covers(join_value)

    def retract(self, join_value: Any) -> int:
        return self.side.retract_covering(join_value)

    def observe(self, punct: Punctuation) -> None:
        # The join adds punctuations to its own store; nothing to track.
        pass


class TrackedSideContract:
    """Contract view with a private punctuation set (XJoin, SHJ).

    Only join-exploitable punctuations are tracked — a punctuation
    constraining non-join attributes makes no promise about join values,
    so it can neither be violated by join value nor retracted.
    """

    __slots__ = ("store",)

    def __init__(self, schema: Schema, join_field: str) -> None:
        self.store = PunctuationStore(schema, join_field)

    def covers(self, join_value: Any) -> bool:
        return self.store.covers_value(join_value)

    def retract(self, join_value: Any) -> int:
        doomed = [
            pid
            for pid, punct in self.store.items()
            if punct.patterns[self.store.join_index].matches(join_value)
        ]
        for pid in doomed:
            self.store.remove(pid)
        return len(doomed)

    def observe(self, punct: Punctuation) -> None:
        if not is_join_exploitable(punct, self.store.join_field):
            return
        join_pattern = punct.patterns[self.store.join_index]
        if self.store.has_equal_join_pattern(join_pattern):
            return
        self.store.add(punct)


class ContractValidator:
    """Applies one fault policy to one operator's inputs.

    Parameters
    ----------
    engine:
        The simulation engine (for virtual time and the active tracer).
    operator_name:
        Label used in traces and error messages.
    policy:
        One of :data:`~repro.resilience.policy.FAULT_POLICIES`.
    contracts:
        One contract view per input side.
    dead_letters:
        The operator's dead-letter store; created on demand when the
        policy is ``quarantine`` and none is supplied.
    """

    def __init__(
        self,
        engine: Any,
        operator_name: str,
        policy: str,
        contracts: Sequence[Any],
        dead_letters: Optional[DeadLetterStore] = None,
    ) -> None:
        self.engine = engine
        self.operator_name = operator_name
        self.policy = normalize_policy(policy)
        self.contracts = list(contracts)
        if dead_letters is None and self.policy == QUARANTINE:
            dead_letters = DeadLetterStore(name=f"{operator_name}.dlq")
        self.dead_letters = dead_letters
        self.violations = 0
        self.quarantined = 0
        self.punctuations_retracted = 0

    # -- factories -----------------------------------------------------

    @classmethod
    def for_sides(
        cls,
        engine: Any,
        operator_name: str,
        policy: str,
        sides: Sequence[Any],
        dead_letters: Optional[DeadLetterStore] = None,
    ) -> "ContractValidator":
        """A validator over a punctuation-keeping join's own sides."""
        policy = normalize_policy(policy)
        if policy == TRUST:
            contracts: List[Any] = [InertSideContract() for _ in sides]
        else:
            contracts = [StateSideContract(side) for side in sides]
        return cls(engine, operator_name, policy, contracts, dead_letters)

    @classmethod
    def tracking(
        cls,
        engine: Any,
        operator_name: str,
        policy: str,
        schemas: Sequence[Schema],
        join_fields: Sequence[str],
        dead_letters: Optional[DeadLetterStore] = None,
    ) -> "ContractValidator":
        """A validator that tracks punctuations itself (XJoin, SHJ)."""
        policy = normalize_policy(policy)
        if policy == TRUST:
            contracts: List[Any] = [InertSideContract() for _ in schemas]
        else:
            contracts = [
                TrackedSideContract(schema, field)
                for schema, field in zip(schemas, join_fields)
            ]
        return cls(engine, operator_name, policy, contracts, dead_letters)

    # -- the policy decision -------------------------------------------

    def observe_punctuation(self, punct: Punctuation, side: int) -> None:
        """Show the validator an arriving punctuation (tracked views)."""
        self.contracts[side].observe(punct)

    def admit(self, item: Any, join_value: Any, side: int) -> bool:
        """Decide one arriving tuple: ``True`` admits it into the join.

        ``False`` means the tuple was quarantined (already recorded in
        the dead-letter store) and must not probe or enter the state.
        Under ``strict`` a violation raises
        :class:`~repro.errors.ContractViolationError` instead.
        """
        if self.policy == TRUST:
            return True
        if not self.contracts[side].covers(join_value):
            return True
        self.violations += 1
        if self.policy == STRICT:
            raise ContractViolationError(
                f"{self.operator_name}: tuple {item!r} arrived after a "
                f"punctuation covering join value {join_value!r} on the "
                f"same stream (side {side})"
            )
        now = self.engine.now
        tracer = get_tracer(self.engine)
        if self.policy == QUARANTINE:
            assert self.dead_letters is not None
            self.dead_letters.add(
                item, side, REASON_CONTRACT_VIOLATION, join_value, now
            )
            self.quarantined += 1
            if tracer is not None:
                tracer.record(
                    now, self.operator_name, "quarantine",
                    side=side, join_value=join_value,
                    reason=REASON_CONTRACT_VIOLATION,
                )
            return False
        # REPAIR: withdraw the broken promise, admit the tuple.
        retracted = self.contracts[side].retract(join_value)
        self.punctuations_retracted += retracted
        if tracer is not None:
            tracer.record(
                now, self.operator_name, "retract",
                side=side, join_value=join_value, punctuations=retracted,
            )
        return True

    # -- introspection -------------------------------------------------

    @property
    def is_default_strict(self) -> bool:
        """Strict with zero violations: indistinguishable from legacy."""
        return self.policy == STRICT and self.violations == 0

    def counters(self) -> Dict[str, int]:
        """Uniform counter snapshot (see :mod:`repro.obs.counters`)."""
        return {
            "violations": self.violations,
            "quarantined": self.quarantined,
            "punctuations_retracted": self.punctuations_retracted,
        }

    def __repr__(self) -> str:
        return (
            f"ContractValidator({self.operator_name!r}, policy={self.policy}, "
            f"violations={self.violations})"
        )
