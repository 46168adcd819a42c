"""The sliding-window PJoin extension (paper Section 6).

Combines punctuation purging with sliding-window invalidation: a result
pair must have arrival timestamps within ``window_ms`` of each other,
and expired tuples are dropped from the state.  As the paper suggests,
tuple invalidation is performed *in combination with state probing*:
when a bucket is probed, its entries are visited in timestamp order and
expiry stops at the first time-valid tuple.

The interaction the paper hints at ("early punctuation propagation")
falls out naturally: window expiry decrements punctuation index counts
just like purging does, so a punctuation whose last matching tuples
expired becomes propagable before any purge run touches them.

The windowed operator keeps its state memory-resident (no relocation,
no memory governor), which is the regime window joins are designed for
— their whole point is a state bounded by the window.  Expiry cuts each
value chain at its first in-window entry, which needs every chain warm
and in arrival order; a governor's demoted entries are neither.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple as PyTuple

from repro.core.pjoin import PJoin
from repro.errors import ConfigError
from repro.storage.partition import StateEntry
from repro.tuples.tuple import Tuple


class WindowedPJoin(PJoin):
    """PJoin with an additional sliding time window on both inputs.

    Parameters
    ----------
    window_ms:
        Window size in virtual milliseconds.  A pair joins only when
        the earlier tuple arrived within ``window_ms`` of the later one.
    """

    def __init__(self, *args, window_ms: float = 1000.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if window_ms <= 0:
            raise ConfigError(f"window_ms must be positive, got {window_ms!r}")
        if self.config.memory_threshold is not None:
            raise ConfigError(
                "WindowedPJoin keeps its state memory-resident; "
                "set memory_threshold=None"
            )
        if self.governor is not None:
            raise ConfigError(
                "WindowedPJoin keeps its state memory-resident; "
                "build it without a governor"
            )
        self.window_ms = window_ms
        self.tuples_expired = 0

    def counters(self) -> dict:
        out = super().counters()
        out["tuples_expired"] = self.tuples_expired
        return out

    def _tuple_handler(
        self,
    ) -> PyTuple[Callable[[Tuple, int], float], Dict[str, bool]]:
        """Expire the probed bucket, then run the PJoin memory join."""
        memory_join, layers = super()._tuple_handler()
        join_indices = self.join_indices
        purge_scan = self.cost_model.purge_scan_per_tuple

        def expire_then_join(tup: Tuple, side: int) -> float:
            expired = self._expire_bucket(1 - side, tup.values[join_indices[side]])
            return memory_join(tup, side) + purge_scan * expired

        return expire_then_join, {**layers, "window": True}

    def _expire_bucket(self, side: int, join_value: Any) -> int:
        """Drop out-of-window entries from the bucket about to be probed.

        Entries are stored in arrival order within each value chain, so
        scanning each chain stops at the first still-valid entry — the
        timestamp-ordered access pattern Section 6 describes.
        """
        horizon = self.engine.now - self.window_ms
        partition = self.sides[side].table.partition_for(join_value)
        expired: List[StateEntry] = []
        for chain_value in list(partition.memory):
            chain = partition.memory[chain_value]
            cut = 0
            for entry in chain:
                if entry.ats < horizon:
                    cut += 1
                else:
                    break
            if cut:
                expired.extend(chain[:cut])
                remaining = chain[cut:]
                if remaining:
                    partition.memory[chain_value] = remaining
                else:
                    del partition.memory[chain_value]
        if expired:
            partition.memory_count -= len(expired)
            self.sides[side].table.memory_count -= len(expired)
            for entry in expired:
                self.sides[side].discard_entry(entry)
            self.tuples_expired += len(expired)
        return len(expired)
