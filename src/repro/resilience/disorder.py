"""The punctuation-aware disorder buffer.

A source whose delivery path reorders items (network retries, partition
rebalances) can turn a *valid* punctuated stream into a violating one:
a tuple displaced past its key's punctuation arrives "late" and trips
the contract check.  The disorder buffer absorbs bounded disorder
before the operator ever sees it: items are held for a configurable
virtual-time **slack** and released in item-timestamp order, so any
tuple displaced by less than the slack is re-sequenced back in front of
the punctuation that outran it.

The buffer is deliberately simple and deterministic — a heap keyed by
``(item.ts, rank, arrival_seq)`` plus a watermark:

* when an item arrives at virtual time *t*, the watermark advances to
  ``t - slack`` and every held item with ``ts <= watermark`` is
  released, oldest first;
* at equal timestamps tuples (rank 0) go before punctuations (rank 1).
  A punctuation is stamped with its preceding tuple's timestamp, so a
  tuple displaced past its own key's punctuation can tie with it, and
  must come back in front of it;
* at end-of-stream the buffer flushes in timestamp order;
* an item whose ``(ts, rank)`` slot is already behind the released
  frontier cannot be re-sequenced — it is released immediately and
  counted in :attr:`late_releases`, leaving the downstream fault policy
  to deal with it.  A tuple released after a punctuation with its own
  timestamp is such an item.

Everything is charged to the virtual clock by the source that owns the
buffer; the buffer itself only re-orders.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple as PyTuple

from repro.errors import ResilienceError
from repro.punctuations.punctuation import Punctuation

_NEG_INF = float("-inf")


class DisorderBuffer:
    """Re-sequences a bounded-disorder stream by item timestamp.

    Parameters
    ----------
    slack_ms:
        How long (virtual time) an item may be held waiting for
        stragglers.  Larger slack repairs larger displacement but adds
        up to ``slack_ms`` latency to every item.
    """

    def __init__(self, slack_ms: float) -> None:
        if slack_ms < 0:
            raise ResilienceError(
                f"disorder slack must be non-negative, got {slack_ms}"
            )
        self.slack_ms = slack_ms
        self._heap: List[PyTuple[float, int, int, Any]] = []
        self._seq = 0
        self._max_item_ts = _NEG_INF
        # (ts, rank) of the latest item released in order.
        self._released_frontier: PyTuple[float, int] = (_NEG_INF, 0)
        # -- counters ---------------------------------------------------
        self.items_buffered = 0
        self.reordered = 0
        self.late_releases = 0
        self.max_held = 0

    def push(self, item: Any, arrival_ts: float) -> List[Any]:
        """Accept one item; return every item now ready, in ts order."""
        item_ts = getattr(item, "ts", arrival_ts)
        if item_ts < self._max_item_ts:
            # The stream really was disordered here (an older item
            # arrived after a newer one); the heap will re-sequence it.
            self.reordered += 1
        self._max_item_ts = max(self._max_item_ts, item_ts)
        rank = 1 if isinstance(item, Punctuation) else 0
        heapq.heappush(self._heap, (item_ts, rank, self._seq, item))
        self._seq += 1
        self.items_buffered += 1
        self.max_held = max(self.max_held, len(self._heap))
        watermark = arrival_ts - self.slack_ms
        return self._release_until(watermark)

    def flush(self) -> List[Any]:
        """Release everything still held (end-of-stream), in ts order."""
        return self._release_until(float("inf"))

    def _release_until(self, watermark: float) -> List[Any]:
        ready: List[Any] = []
        while self._heap and self._heap[0][0] <= watermark:
            item_ts, rank, _seq, item = heapq.heappop(self._heap)
            slot = (item_ts, rank)
            if slot < self._released_frontier:
                # Displaced beyond the slack: its in-order slot already
                # passed.  Deliver anyway; the fault policy downstream
                # decides what to do with the (possibly late) item.
                self.late_releases += 1
            else:
                self._released_frontier = slot
            ready.append(item)
        return ready

    @property
    def held(self) -> int:
        """Items currently waiting in the buffer."""
        return len(self._heap)

    def counters(self) -> Dict[str, float]:
        """Uniform counter snapshot (see :mod:`repro.obs.counters`)."""
        return {
            "items_buffered": self.items_buffered,
            "reordered": self.reordered,
            "late_releases": self.late_releases,
            "max_held": self.max_held,
            "slack_ms": self.slack_ms,
        }

    def __repr__(self) -> str:
        return (
            f"DisorderBuffer(slack={self.slack_ms:g}ms, held={self.held}, "
            f"reordered={self.reordered})"
        )
