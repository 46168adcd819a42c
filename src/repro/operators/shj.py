"""The symmetric hash join — the basic stream join of Wilschut & Apers.

Keeps every arriving tuple forever: it is the strawman whose
"indefinitely accumulating join state" motivates both XJoin and PJoin.
Punctuations are absorbed (it has no constraint-exploiting mechanism).
Useful as a reference implementation in tests and as the
memory-overflow-free baseline in examples.

Like XJoin, the operator can optionally enforce the punctuation
contract through the shared :class:`~repro.resilience.validator.
ContractValidator` — the default ``"trust"`` policy keeps the paper's
zero-overhead behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.memory.budget import GovernorSpec
from repro.operators import fastpath
from repro.operators.binary import BinaryHashJoin
from repro.punctuations.punctuation import Punctuation
from repro.resilience.policy import TRUST
from repro.resilience.validator import ContractValidator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.storage.hash_table import stable_hash
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


def symmetric_handler(
    join: Any, relocate: Optional[Callable[[], float]] = None
) -> Callable[[Any, int], float]:
    """The item handler of SHJ and XJoin: probe, emit, insert.

    *join* is a :class:`SymmetricHashJoin` or an
    :class:`~repro.operators.xjoin.XJoin`.  The optional layers present
    at build are bound in and absent ones left out: the contract check
    (any policy but ``trust``; the tables hold no punctuations, so every
    tuple goes to the validator), the memory governor, and *relocate*,
    XJoin's state relocation after each insert; the tag names them.
    Hooks are reached through their owners at call time, so profiler
    shadows installed after build hold.
    """
    state0, state1 = join.states
    ji0, ji1 = join.join_indices
    cost_model = join.cost_model
    tuple_overhead = cost_model.tuple_overhead
    insert_cost = cost_model.insert
    punct_overhead = cost_model.punct_overhead
    engine = join.engine
    validator = join.validator
    check_contract = validator.policy != TRUST
    governor = join.governor

    def handle(item: Any, port: int) -> float:
        if isinstance(item, Tuple):
            if port == 0:
                value = item.values[ji0]
                mine, other = state0, state1
            else:
                value = item.values[ji1]
                mine, other = state1, state0
            if check_contract and not validator.admit(item, value, port):
                return tuple_overhead
            value_hash = stable_hash(value)
            governor_cost = 0.0
            if governor is not None:
                governor_cost += governor.fault_in(1 - port, value, value_hash)
            occupancy, matches = other.probe(value, value_hash)
            join.probes += 1
            join.probe_matches += len(matches)
            join.emit_joins(item, matches, port)
            mine.insert(item, value, engine.now, value_hash)
            join.insertions += 1
            if governor is not None:
                governor_cost += governor.after_insert(port, value, value_hash)
            cost = (
                tuple_overhead
                + cost_model.probe_cost(occupancy, len(matches))
                + insert_cost
                + governor_cost
            )
            if relocate is not None:
                cost += relocate()
            return cost
        if isinstance(item, Punctuation):
            # No constraint-exploiting mechanism: absorb.
            if check_contract:
                validator.observe_punctuation(item, port)
            join.punctuations_absorbed += 1
            return punct_overhead
        return 0.0

    return fastpath.mark(
        handle,
        resilience=check_contract,
        governor=governor is not None,
        relocation=relocate is not None,
    )


class SymmetricHashJoin(BinaryHashJoin):
    """Probe the opposite state, emit matches, insert — never purge."""

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        left_schema: Schema,
        right_schema: Schema,
        left_field: str,
        right_field: str,
        n_partitions: int = 16,
        name: str = "",
        fault_policy: str = TRUST,
        governor: Optional[GovernorSpec] = None,
    ) -> None:
        super().__init__(
            engine,
            cost_model,
            left_schema,
            right_schema,
            left_field,
            right_field,
            n_partitions=n_partitions,
            name=name,
        )
        self.validator = ContractValidator.tracking(
            engine,
            name or "shj",
            fault_policy,
            [left_schema, right_schema],
            [left_field, right_field],
        )
        self.dead_letters = self.validator.dead_letters
        self.governor = None
        if governor is not None:
            # SHJ owns no disk; the governor builds a private one.
            self.governor = governor.build(
                cost_model, engine=engine, name=f"{name or 'shj'}.governor"
            )
            self.governor.register_side(0, self.states[0])
            self.governor.register_side(1, self.states[1])
        self.punctuations_absorbed = 0
        self.handle = symmetric_handler(self)  # type: ignore[method-assign]

    def __getstate__(self) -> Dict[str, Any]:
        return fastpath.strip_for_pickle(self.__dict__)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.handle = symmetric_handler(self)  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Checkpointing (repro.checkpoint)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Recoverable state: both accumulating tables plus counters."""
        from repro.checkpoint import snapshot as snaplib

        return {
            "version": snaplib.SNAPSHOT_VERSION,
            "kind": "shj",
            "states": [snaplib.snapshot_table(table) for table in self.states],
            "validator": snaplib.snapshot_validator(self.validator),
            "counters": snaplib.snapshot_attrs(
                self,
                ("punctuations_absorbed",)
                + snaplib.BINARY_JOIN_COUNTERS
                + snaplib.BASE_OPERATOR_COUNTERS,
            ),
        }

    def restore_state(self, snap: Dict[str, Any]) -> None:
        from repro.checkpoint import snapshot as snaplib

        for table, table_snap in zip(self.states, snap["states"]):
            snaplib.restore_table_into(table, table_snap)
        snaplib.restore_validator_into(self.validator, snap["validator"])
        snaplib.restore_attrs(self, snap["counters"])

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["punctuations_absorbed"] = self.punctuations_absorbed
        # Non-default policies only: default manifests stay unchanged.
        if self.validator.policy != TRUST:
            for key, value in self.validator.counters().items():
                out[f"resilience.{key}"] = value
        if self.governor is not None:
            for key, value in self.governor.counters().items():
                out[f"governor.{key}"] = value
        return out
