"""The terminal sink operator.

Collects everything that reaches the end of a query plan: result
tuples, propagated punctuations and their arrival (virtual) times.
Experiments read its counters through the metrics sampler; tests read
the collected items directly to compare against reference results.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Tuple as PyTuple

from repro.operators.base import Operator
from repro.punctuations.punctuation import Punctuation
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.tuples.batch import ResultBatch
from repro.tuples.tuple import Tuple


class Sink(Operator):
    """Zero-cost terminal operator that records its input.

    Parameters
    ----------
    keep_items:
        When ``True`` (default) every received result tuple is
        retained, which tests and examples rely on.  Long benchmark runs
        can pass ``False`` to keep only counts and timings: such a sink
        counts each :class:`~repro.tuples.batch.ResultBatch` by its
        length and never builds a result tuple.  Punctuations are kept
        either way: there is one per propagated punctuation, not one per
        result, and a sharded run's merge settles them.
    """

    # Zero-cost and terminal: a whole upstream outbox can be absorbed
    # in one call with byte-identical counters (see accept_batch).
    _accepts_batches = True

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        keep_items: bool = True,
        name: str = "sink",
    ) -> None:
        super().__init__(engine, cost_model, n_inputs=1, name=name)
        self.keep_items = keep_items
        self.results: List[Tuple] = []
        self.punctuations: List[Punctuation] = []
        # Result arrivals as (time, count) runs, merged while the time
        # repeats: one run per delivery, not one entry per result.
        # tuple_arrival_times expands them for output-rate figures.
        self._arrival_times = array("d")
        self._arrival_counts = array("q")
        self._tuple_count = 0
        self.punctuation_arrival_times: List[float] = []
        self.eos_time: float = -1.0

    def _record_tuples(self, now: float, count: int) -> None:
        """Record *count* results arriving at *now*."""
        self._tuple_count += count
        times = self._arrival_times
        if times and times[-1] == now:
            self._arrival_counts[-1] += count
        else:
            times.append(now)
            self._arrival_counts.append(count)

    def handle(self, item: Any, port: int) -> float:
        now = self.engine.now
        if isinstance(item, Tuple):
            self._record_tuples(now, 1)
            if self.keep_items:
                self.results.append(item)
        elif isinstance(item, Punctuation):
            self.punctuation_arrival_times.append(now)
            self.punctuations.append(item)
        return 0.0

    def accept_batch(
        self, items: List[Any], now: float, port: int
    ) -> PyTuple[int, int]:
        """Absorb a whole upstream outbox in one call (*port* is always 0).

        Emulates exactly what one ``push`` per result and punctuation
        would do — handling is zero-cost, so each push would drain
        immediately with a queue length of one — including the
        per-item ``with_ts`` restamp the upstream delivery loop applies.
        Result tuples skip the restamp when items are not kept (the
        copies were discarded); punctuations are always kept, so they
        are always restamped.  A result batch counts as its length; it
        is built into tuples, stamped *now*, only when items are kept.
        Returns ``(tuples, punctuations)`` so the upstream can update
        its own output counters.
        """
        n_tuples = 0
        n_puncts = 0
        n_items = len(items)
        keep = self.keep_items
        punct_times = self.punctuation_arrival_times
        for item in items:
            if item.__class__ is ResultBatch:
                count = item.count
                n_tuples += count
                n_items += count - 1
                if keep:
                    self.results.extend(item.tuples(now))
            elif isinstance(item, Tuple):
                n_tuples += 1
                if keep:
                    self.results.append(
                        item if item.ts == now else item.with_ts(now)
                    )
            elif isinstance(item, Punctuation):
                n_puncts += 1
                punct_times.append(now)
                self.punctuations.append(
                    item if item.ts == now else item.with_ts(now)
                )
        if n_tuples:
            self._record_tuples(now, n_tuples)
        self.tuples_in += n_tuples
        self.punctuations_in += n_puncts
        self.items_processed += n_items
        if items and self.max_queue_length < 1:
            self.max_queue_length = 1
        return n_tuples, n_puncts

    def on_finish(self) -> float:
        self.eos_time = self.engine.now
        return 0.0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def tuple_count(self) -> int:
        return self._tuple_count

    @property
    def tuple_arrival_times(self) -> List[float]:
        """The arrival time of every result, one entry per result."""
        return [
            t
            for t, count in zip(self._arrival_times, self._arrival_counts)
            for _ in range(count)
        ]

    @property
    def punctuation_count(self) -> int:
        return len(self.punctuation_arrival_times)

    def result_multiset(self) -> dict:
        """``{value-tuple: count}`` of received result tuples.

        Timestamps are ignored so results can be compared against a
        reference join computed outside the simulation.
        """
        counts: dict = {}
        for tup in self.results:
            counts[tup.values] = counts.get(tup.values, 0) + 1
        return counts

    def punctuation_multiset(self) -> dict:
        """``{first pattern: count}`` of received punctuations."""
        counts: dict = {}
        for punct in self.punctuations:
            key = punct.patterns[0]
            counts[key] = counts.get(key, 0) + 1
        return counts

    def cumulative_output_series(self) -> List[PyTuple[float, int]]:
        """``(time, cumulative result count)`` points, one per arrival."""
        return [(t, i + 1) for i, t in enumerate(self.tuple_arrival_times)]

    def __repr__(self) -> str:
        return (
            f"Sink(tuples={self.tuple_count}, "
            f"punctuations={self.punctuation_count})"
        )
