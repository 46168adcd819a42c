"""Aligned merge: deterministic re-union of K shard output streams.

Result tuples pass straight through (zero virtual cost, so single-shard
stacks stay byte-identical to the unsharded operator).  Output
*punctuations* are aligned: a logical punctuation that was split across
shards by the router is re-emitted downstream exactly once — when every
shard in its cover has propagated its narrowed piece.  This is a
distributed-min watermark over the shard punctuation frontiers: the
merged promise only holds once the *slowest* covering shard has
released it.

The bookkeeping lives in an :class:`AlignmentLedger` shared with the
:class:`~repro.shard.router.ShardRouter` (in the in-simulator backend)
or replayed offline by the multiprocess backend's merge step: the
router registers one *subscription* per routed input punctuation —
the original join pattern plus the set of ``(shard, narrowed_pattern)``
pieces it still owes — and each shard punctuation arriving at the
merger settles the oldest subscription expecting that piece.  Matching
oldest-first keeps duplicate patterns well-defined: when both streams
punctuate the same constant, two subscriptions are registered and two
merged punctuations are emitted, exactly as the unsharded operator
propagates one per side.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple as PyTuple

from repro.operators.base import Operator
from repro.punctuations.patterns import Pattern, WILDCARD
from repro.punctuations.punctuation import Punctuation
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.tuples.batch import ResultBatch
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


class _Subscription:
    """One routed input punctuation awaiting all its shard pieces."""

    __slots__ = ("original", "remaining")

    def __init__(self, original: Pattern, remaining: set) -> None:
        self.original = original
        self.remaining = remaining  # {(shard, narrowed_pattern), ...}


class AlignmentLedger:
    """Maps shard punctuation frontiers back to original promises."""

    def __init__(self) -> None:
        # (shard, narrowed_pattern) -> FIFO of subscriptions owed a piece.
        self._queues: Dict[PyTuple[int, Pattern], Deque[_Subscription]] = {}
        self.subscriptions_open = 0
        self.subscriptions_completed = 0

    def register(
        self, original: Pattern, cover: List[PyTuple[int, Pattern]]
    ) -> Optional[_Subscription]:
        """Expect one narrowed piece from every shard in *cover*.

        Returns the subscription so callers that need to inspect
        settlement progress can hold on to it — the rescale quiesce
        (:mod:`repro.checkpoint.rescale`) re-delivers still-unsettled
        originals across the new shard set.  The router ignores the
        return value.
        """
        if not cover:
            return None
        sub = _Subscription(original, {(s, p) for s, p in cover})
        for key in sub.remaining:
            self._queues.setdefault(key, deque()).append(sub)
        self.subscriptions_open += 1
        return sub

    def settle(
        self, shard: int, pattern: Pattern
    ) -> PyTuple[bool, Optional[Pattern]]:
        """Record one shard piece.

        Returns ``(matched, original)``: *matched* says whether any
        subscription expected this piece, and *original* is the original
        pattern when the piece completed its subscription (else
        ``None``).
        """
        key = (shard, pattern)
        queue = self._queues.get(key)
        if not queue:
            return False, None
        sub = queue.popleft()
        if not queue:
            del self._queues[key]
        sub.remaining.discard(key)
        if sub.remaining:
            return True, None
        self.subscriptions_open -= 1
        self.subscriptions_completed += 1
        return True, sub.original

    def counters(self) -> dict:
        return {
            "subscriptions_open": self.subscriptions_open,
            "subscriptions_completed": self.subscriptions_completed,
        }


class AlignedMerger(Operator):
    """K-input zero-cost union with punctuation alignment.

    Parameters
    ----------
    ledger:
        The :class:`AlignmentLedger` the router registers subscriptions
        in.
    out_schema:
        The logical join's output schema; merged punctuations constrain
        ``out_join_index`` on it (wildcards elsewhere), mirroring the
        unsharded operator's propagation shape.
    """

    _accepts_batches = True

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        n_shards: int,
        ledger: AlignmentLedger,
        out_schema: Schema,
        out_join_index: int,
        name: str = "shard_merger",
    ) -> None:
        super().__init__(engine, cost_model, n_inputs=n_shards, name=name)
        self.ledger = ledger
        self.out_schema = out_schema
        self.out_join_index = out_join_index
        self.tuples_merged = 0
        self.punctuations_aligned = 0
        self.punctuations_merged = 0
        self.punctuations_unaligned = 0

    def handle(self, item: Any, port: int) -> float:
        """One pushed item; shard outboxes arrive through accept_batch."""
        if isinstance(item, Tuple):
            self.tuples_merged += 1
            self.emit(item)
        elif isinstance(item, Punctuation):
            self._align(item, port)
        return 0.0

    def accept_batch(
        self, items: List[Any], now: float, port: int
    ) -> PyTuple[int, int]:
        """Merge shard *port*'s outbox as one ``push`` per item would.

        Tuples and result batches pass through unchanged (the downstream
        delivery restamps or expands them; a batch counts as its
        length); punctuations are restamped to *now* and aligned in
        place, so a merged punctuation never overtakes an earlier result.
        """
        outbox = self._outbox
        n_tuples = n_puncts = 0
        n_items = len(items)
        for item in items:
            if item.__class__ is ResultBatch:
                n_tuples += item.count
                n_items += item.count - 1
                outbox.append(item)
            elif isinstance(item, Tuple):
                n_tuples += 1
                outbox.append(item)
            elif isinstance(item, Punctuation):
                n_puncts += 1
                self._align(item if item.ts == now else item.with_ts(now), port)
        self.tuples_in += n_tuples
        self.tuples_merged += n_tuples
        self.punctuations_in += n_puncts
        self.items_processed += n_items
        if items and self.max_queue_length < 1:
            self.max_queue_length = 1
        if outbox:
            self._outbox = []
            self._deliver(outbox)
        return n_tuples, n_puncts

    def _align(self, punct: Punctuation, shard: int) -> None:
        pattern = punct.patterns[self.out_join_index]
        matched, original = self.ledger.settle(shard, pattern)
        if not matched:
            # A shard released a promise the router never split: hold it
            # (re-emitting a per-shard piece of a broadcast pattern would
            # over-promise about the other shards' keys).
            self.punctuations_unaligned += 1
            return
        self.punctuations_aligned += 1
        if original is None:
            return
        self.punctuations_merged += 1
        patterns: List[Pattern] = [WILDCARD] * self.out_schema.arity
        patterns[self.out_join_index] = original
        self.emit(Punctuation(self.out_schema, patterns, ts=punct.ts))

    def counters(self) -> dict:
        out = super().counters()
        out.update(
            tuples_merged=self.tuples_merged,
            punctuations_aligned=self.punctuations_aligned,
            punctuations_merged=self.punctuations_merged,
            punctuations_unaligned=self.punctuations_unaligned,
        )
        out.update(self.ledger.counters())
        return out
