"""Tuples, schemas and the stream-item taxonomy.

A data stream in this library is a sequence of *stream items*.  An item
is one of:

* a :class:`~repro.tuples.tuple.Tuple` — a data element conforming to a
  :class:`~repro.tuples.schema.Schema`;
* a :class:`~repro.punctuations.punctuation.Punctuation` — a predicate
  promising that no later tuple in the stream will match it;
* the :data:`~repro.tuples.item.END_OF_STREAM` sentinel.

This package defines the first and last of those plus the schema
machinery; punctuations live in :mod:`repro.punctuations`.  Inside an
operator's outbox a join's results travel as
:class:`~repro.tuples.batch.ResultBatch` objects, one per probe, and
become tuples only where a consumer needs them.
"""

from repro.tuples.schema import Field, Schema
from repro.tuples.tuple import Tuple
from repro.tuples.batch import ResultBatch
from repro.tuples.item import END_OF_STREAM, EndOfStream, is_end_of_stream

__all__ = [
    "Field",
    "Schema",
    "Tuple",
    "ResultBatch",
    "EndOfStream",
    "END_OF_STREAM",
    "is_end_of_stream",
]
