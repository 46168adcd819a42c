"""Result batches: the results of one probe, built into tuples on demand.

A probe of the memory join can match hundreds of state entries.  The
join appends one :class:`ResultBatch` per probe to its outbox instead
of one result :class:`~repro.tuples.tuple.Tuple` per match.  A consumer
that keeps results, or an operator fed item by item, expands the batch
with :meth:`ResultBatch.tuples`, stamping every result once with the
delivery time.  A sink that keeps nothing only adds the batch's length
to its counters, so it never builds a result tuple.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, List, Optional, Sequence, Tuple as PyTuple

from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


class ResultBatch:
    """The results of one probe, in emission order.

    Two forms share the type:

    * binary: the arriving tuple's *values* joined with each of
      *matches*, a tuple of state entries, left values first
      (*new_left* says whether the arriving tuple is the left one);
    * n-ary: the cross product of *values* with every list in
      *matches*, the first list outermost, each combination put into
      stream order by *in_stream_order*.

    *matches* must be a snapshot, not a live bucket list: the state may
    change between the probe and the delivery.  *count* is the number of
    results.
    """

    __slots__ = ("schema", "values", "matches", "count", "new_left", "in_stream_order")

    def __init__(
        self,
        schema: Schema,
        values: PyTuple[Any, ...],
        matches: Sequence[Any],
        count: int,
        new_left: bool = False,
        in_stream_order: Optional[Callable[[Any], PyTuple[Any, ...]]] = None,
    ) -> None:
        self.schema = schema
        self.values = values
        self.matches = matches
        self.count = count
        self.new_left = new_left
        self.in_stream_order = in_stream_order

    def tuples(self, ts: float) -> List[Tuple]:
        """The results as tuples stamped *ts*, in emission order."""
        schema = self.schema
        values = self.values
        fresh = Tuple.fresh
        order = self.in_stream_order
        if order is not None:
            return [
                fresh(schema, sum(order(combo), ()), ts)
                for combo in product((values,), *self.matches)
            ]
        if self.new_left:
            return [fresh(schema, values + entry.tup.values, ts) for entry in self.matches]
        return [fresh(schema, entry.tup.values + values, ts) for entry in self.matches]
