"""A space-bounded frequency sketch over join-key arrivals.

Two classic structures compose into one deterministic estimator:

* **SpaceSaving top-K** (Metwally et al.): at most ``top_k`` monitored
  keys, each with a count and a max-overestimation error.  On streams
  with at most ``top_k`` distinct keys the counts are *exact* (no
  monitor is ever evicted — the hypothesis property pins this down).
* **count-min** (Cormode & Muthukrishnan): ``depth`` rows of ``width``
  counters addressed by pairwise-independent mixes of
  :func:`~repro.storage.hash_table.stable_hash`, answering frequency
  estimates for keys outside the monitored set.

Everything is integer arithmetic over :func:`stable_hash`, so a seeded
run produces the identical sketch state on every platform and process —
the property all downstream decisions (splits, hot-key activation,
eviction scoring) inherit.

An observation makes O(1) amortised heap operations (each O(log
``top_k``)) and at most one ``repr`` call, and every victim, ``topk()``
order and estimate is the one a scan of every monitor would give:

* each monitor has one entry in a min-heap, ``(count, repr, admission
  seq, value)``, with ``repr`` computed once at admission.  A count
  bump leaves the entry stale, but never above the monitor's count,
  because counts only rise.  An eviction re-pushes stale top entries
  with their current counts until the top is current; no monitor then
  sorts below it by ``(count, repr)``, and the admission seq makes it
  the first-admitted among exact ties, as the dict order did for a
  scan.  Each re-push follows at least one count bump;
* count-min increments are summed per hash value in a pending dict of
  at most ``PENDING_LIMIT`` entries and folded into the rows before
  :meth:`FrequencySketch.estimate` reads them.  Integer addition
  commutes, so the rows a read sees are exactly the rows per-arrival
  updates would have built.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigError
from repro.storage.hash_table import stable_hash

# Fixed odd multipliers/offsets deriving the count-min row hashes from
# one stable_hash value (64-bit mixing constants; any fixed odd values
# work, these are splitmix64's).
_ROW_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xD6E8FEB86659FD93,
    0xA5A5A5A5A5A5A5A5,
    0xC2B2AE3D27D4EB4F,
)
_MASK64 = (1 << 64) - 1

#: Distinct hash values whose count-min increments may wait unfolded.
PENDING_LIMIT = 128

# A monitor's heap entry: (count when pushed, repr, admission seq, value).
_HeapEntry = Tuple[int, str, int, Any]


class FrequencySketch:
    """Deterministic SpaceSaving top-K over a count-min backing.

    Parameters
    ----------
    top_k:
        Maximum number of exactly-monitored keys (the hot set).
    width, depth:
        Count-min geometry; ``depth`` is capped by the number of fixed
        row-mixing constants (6).

    A monitored value's ``repr`` is taken once, at admission, so it
    must not change while the value is monitored (true of the
    immutable scalars joins key on).
    """

    def __init__(self, top_k: int = 32, width: int = 1024, depth: int = 4) -> None:
        if top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {top_k}")
        if width < 1:
            raise ConfigError(f"width must be >= 1, got {width}")
        if not 1 <= depth <= len(_ROW_MULTIPLIERS):
            raise ConfigError(
                f"depth must be in [1, {len(_ROW_MULTIPLIERS)}], got {depth}"
            )
        self.top_k = top_k
        self.width = width
        self.depth = depth
        self.total = 0
        # Monitored keys: value -> (count, error).  ``error`` bounds how
        # much of ``count`` may belong to earlier evicted keys.  The
        # dict keeps admission order.
        self._monitored: Dict[Any, Tuple[int, int]] = {}
        self._heap: List[_HeapEntry] = []
        self._admitted = 0
        self._rows = [[0] * width for _ in range(depth)]
        # Count-min increments not yet in the rows: hash value -> count.
        self._pending: Dict[int, int] = {}
        self.evictions = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def observe(self, value: Any, hash_value: int | None = None, count: int = 1) -> None:
        """Record *count* (at least 1) arrivals of *value*."""
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        if hash_value is None:
            hash_value = stable_hash(value)
        self.total += count
        pending = self._pending
        pending[hash_value] = pending.get(hash_value, 0) + count
        if len(pending) >= PENDING_LIMIT:
            self._fold_pending()
        monitored = self._monitored
        entry = monitored.get(value)
        if entry is not None:
            monitored[value] = (entry[0] + count, entry[1])
            return
        heap = self._heap
        if len(monitored) < self.top_k:
            monitored[value] = (count, 0)
            heappush(heap, (count, repr(value), self._admitted, value))
            self._admitted += 1
            return
        # SpaceSaving eviction: replace the monitor with the least
        # (count, repr), the first admitted among exact ties.  Repair
        # stale top entries until the top is current (module docstring).
        while True:
            pushed, text, seq, victim = heap[0]
            floor = monitored[victim][0]
            if floor == pushed:
                break
            heapreplace(heap, (floor, text, seq, victim))
        del monitored[victim]
        monitored[value] = (floor + count, floor)
        heapreplace(heap, (floor + count, repr(value), self._admitted, value))
        self._admitted += 1
        self.evictions += 1

    def _fold_pending(self) -> None:
        """Add the pending count-min increments to the rows."""
        width = self.width
        pending = self._pending
        for row, cells in enumerate(self._rows):
            multiplier = _ROW_MULTIPLIERS[row]
            for hash_value, count in pending.items():
                mixed = ((hash_value & _MASK64) * multiplier + row) & _MASK64
                cells[mixed % width] += count
        pending.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def estimate(self, value: Any, hash_value: int | None = None) -> int:
        """Estimated arrival count of *value* (never an underestimate
        for monitored keys; count-min overestimates only)."""
        entry = self._monitored.get(value)
        if entry is not None:
            return entry[0]
        if self._pending:
            self._fold_pending()
        if hash_value is None:
            hash_value = stable_hash(value)
        h = hash_value & _MASK64
        return min(
            cells[((h * _ROW_MULTIPLIERS[row] + row) & _MASK64) % self.width]
            for row, cells in enumerate(self._rows)
        )

    def topk(self) -> List[Tuple[Any, int, int]]:
        """Monitored keys as ``(value, count, error)``, hottest first.

        Ordering is deterministic: count descending, then ``repr``, then
        admission order.
        """
        monitored = self._monitored
        ranked = sorted(
            (-monitored[value][0], text, seq, value)
            for _pushed, text, seq, value in self._heap
        )
        out: List[Tuple[Any, int, int]] = []
        for _count, _text, _seq, value in ranked:
            count, error = monitored[value]
            out.append((value, count, error))
        return out

    def share(self, value: Any, hash_value: int | None = None) -> float:
        """Estimated fraction of all arrivals carrying *value*."""
        if self.total == 0:
            return 0.0
        return self.estimate(value, hash_value) / self.total

    def is_exact(self) -> bool:
        """True while no monitor has been evicted (counts are exact)."""
        return self.evictions == 0

    def counters(self) -> Dict[str, int]:
        return {
            "observed": self.total,
            "monitored": len(self._monitored),
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"FrequencySketch(top_k={self.top_k}, observed={self.total}, "
            f"monitored={len(self._monitored)})"
        )
