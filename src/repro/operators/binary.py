"""Shared structure of binary hash equi-joins.

All binary joins in this library (symmetric hash join, XJoin, window
join, PJoin) share: two input ports, one partitioned hash state per
input, a join field per side, and a concatenated output schema.  This
base class owns that plumbing; subclasses implement the actual probe /
insert / purge policies.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import OperatorError
from repro.operators.base import Operator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.storage.hash_table import PartitionedHashTable
from repro.storage.partition import StateEntry
from repro.tuples.batch import ResultBatch
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

LEFT = 0
RIGHT = 1


class BinaryHashJoin(Operator):
    """Base class for binary hash equi-joins.

    Parameters
    ----------
    left_schema, right_schema:
        Input schemas (port 0 is left, port 1 is right).
    left_field, right_field:
        Join attribute on each side.
    n_partitions:
        Hash bucket count for both states.
    """

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
    ) -> None:
        super().__init__(engine, cost_model, n_inputs=2, name=name)
        self.schemas = [left_schema, right_schema]
        self.join_fields = [left_field, right_field]
        self.join_indices = [
            left_schema.index_of(left_field),
            right_schema.index_of(right_field),
        ]
        self.out_schema = left_schema.concat(
            right_schema, name=self.name + ".out"
        )
        self.states: List[PartitionedHashTable] = [
            PartitionedHashTable(n_partitions),
            PartitionedHashTable(n_partitions),
        ]
        self.results_produced = 0
        # Memory-join counters, bumped by every subclass's probe path.
        self.probes = 0
        self.probe_matches = 0
        self.insertions = 0

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------

    @staticmethod
    def other(side: int) -> int:
        """The opposite side index."""
        if side not in (LEFT, RIGHT):
            raise OperatorError(f"side must be 0 or 1, got {side}")
        return 1 - side

    def join_value(self, tup: Tuple, side: int) -> Any:
        """Extract the join value of a tuple arriving on *side*."""
        return tup.values[self.join_indices[side]]

    def emit_pair(self, entry_a: StateEntry, entry_b: StateEntry, a_side: int) -> None:
        """Emit the join of two state entries, left values first."""
        if a_side == LEFT:
            left, right = entry_a.tup, entry_b.tup
        else:
            left, right = entry_b.tup, entry_a.tup
        self._outbox.append(
            Tuple.fresh(self.out_schema, left.values + right.values, self.engine.now)
        )
        self.results_produced += 1

    def emit_join(self, new_tuple: Tuple, entry: StateEntry, new_side: int) -> None:
        """Emit the join of an arriving tuple with a state entry."""
        if new_side == LEFT:
            values = new_tuple.values + entry.tup.values
        else:
            values = entry.tup.values + new_tuple.values
        self._outbox.append(Tuple.fresh(self.out_schema, values, self.engine.now))
        self.results_produced += 1

    def emit_joins(self, new_tuple: Tuple, entries: List[StateEntry], new_side: int) -> None:
        """Emit the joins of an arriving tuple with many state entries.

        The memory join's inner loop: one probe can match hundreds of
        entries, so the results go out as one :class:`ResultBatch`,
        built into tuples only where a consumer needs them.  The batch
        holds a snapshot of *entries*, which may be a live bucket list.
        """
        if entries:
            matches = tuple(entries)
            self._outbox.append(
                ResultBatch(
                    self.out_schema, new_tuple.values, matches, len(matches),
                    new_side == LEFT,
                )
            )
            self.results_produced += len(matches)

    def counters(self) -> dict:
        out = super().counters()
        out.update(
            results_produced=self.results_produced,
            probes=self.probes,
            probe_matches=self.probe_matches,
            insertions=self.insertions,
            state_total=self.total_state_size(),
            state_memory=self.memory_state_size(),
        )
        return out

    # ------------------------------------------------------------------
    # State-size metrics (sampled by the metrics collector)
    # ------------------------------------------------------------------

    def state_size(self, side: int) -> int:
        """Total state tuples (memory + disk) on one side."""
        return self.states[side].total_count

    def total_state_size(self) -> int:
        """Total state tuples across both sides — the paper's metric."""
        return self.states[LEFT].total_count + self.states[RIGHT].total_count

    def memory_state_size(self) -> int:
        """Memory-resident state tuples across both sides."""
        return self.states[LEFT].memory_count + self.states[RIGHT].memory_count
