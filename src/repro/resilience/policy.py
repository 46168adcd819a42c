"""Fault policies: what an operator does when a contract is broken.

The paper's correctness argument assumes sources honour the punctuation
contract — "no tuple matching a punctuation arrives after it".  A
production system cannot assume that, so every join takes a **fault
policy** deciding what happens when the contract is violated:

``strict``
    Raise :class:`~repro.errors.ContractViolationError` and abort the
    run.  This is the default everywhere: with clean inputs it is
    byte-identical to the pre-resilience behaviour, and it is the right
    mode for reproducing the paper's figures, where a violation means
    the workload generator itself is broken.

``quarantine``
    Route the offending tuple to the operator's per-operator
    :class:`~repro.resilience.deadletter.DeadLetterStore` (counted and
    span-traced) and keep the join *sound*: the emitted results are
    exactly the results of the clean stream minus pairs involving
    quarantined tuples.  Nothing unsound ever reaches downstream.

``repair``
    Withdraw the broken promise instead of the tuple: every live
    punctuation covering the offending join value is retracted from the
    stream's punctuation set (and the punctuation index is healed), then
    the tuple is admitted normally.  The join stays *complete going
    forward* — the late tuple and its successors join everything still
    in state — at the cost of results already lost to purges the
    retracted promise justified.  Retractions are counted.

``trust``
    Skip the check entirely.  The cheapest mode, and the only sensible
    one for operators fed by already-validated upstreams.
"""

from __future__ import annotations

from repro.errors import ResilienceError

STRICT = "strict"
QUARANTINE = "quarantine"
REPAIR = "repair"
TRUST = "trust"

FAULT_POLICIES = (STRICT, QUARANTINE, REPAIR, TRUST)


def normalize_policy(policy: str) -> str:
    """Return *policy* when it names one of :data:`FAULT_POLICIES`.

    Raises :class:`~repro.errors.ResilienceError` for any other value.
    """
    if policy not in FAULT_POLICIES:
        raise ResilienceError(
            f"unknown fault policy {policy!r}; choose one of {FAULT_POLICIES}"
        )
    return policy
