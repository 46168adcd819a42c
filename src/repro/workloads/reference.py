"""Oracle join results computed directly from schedules.

Used by tests (every join variant must produce exactly this multiset of
result values, regardless of purging, spilling, dropping or disk-join
scheduling) and by examples that want ground truth to compare against.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import (
    Any,
    Counter as CounterType,
    Iterable,
    List,
    Sequence,
    Tuple as PyTuple,
)

from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


def _tuples_of(schedule: Iterable[PyTuple[float, Any]]) -> List[Tuple]:
    return [item for _t, item in schedule if isinstance(item, Tuple)]


def reference_join_multiset(
    schedule_a: Iterable[PyTuple[float, Any]],
    schedule_b: Iterable[PyTuple[float, Any]],
    schema_a: Schema,
    schema_b: Schema,
    field_a: str = "key",
    field_b: str = "key",
) -> CounterType:
    """The full equi-join's result multiset, keyed by value tuples.

    Returns ``Counter({left_values + right_values: count})`` — the exact
    multiset every correct stream join must emit over the whole run.
    """
    index_a = schema_a.index_of(field_a)
    index_b = schema_b.index_of(field_b)
    by_key: dict = {}
    for tup in _tuples_of(schedule_b):
        by_key.setdefault(tup.values[index_b], []).append(tup)
    result: CounterType = Counter()
    for tup_a in _tuples_of(schedule_a):
        for tup_b in by_key.get(tup_a.values[index_a], []):
            result[tup_a.values + tup_b.values] += 1
    return result


def reference_nway_join_multiset(
    schedules: Sequence[Iterable[PyTuple[float, Any]]],
    schemas: Sequence[Schema],
    join_fields: Sequence[str],
) -> CounterType:
    """The n-way equi-join's result multiset, columns in stream order.

    Stream *i* joins on ``join_fields[i]``; a result concatenates one
    tuple of every stream, all with the same join value.  A hash join:
    each stream's tuples are grouped by join value, and each value of
    the first stream contributes the product of its groups.
    """
    groups = []
    for schedule, schema, field in zip(schedules, schemas, join_fields):
        index = schema.index_of(field)
        by_key: dict = {}
        for tup in _tuples_of(schedule):
            by_key.setdefault(tup.values[index], []).append(tup.values)
        groups.append(by_key)
    result: CounterType = Counter()
    for key, first in groups[0].items():
        lists = [first] + [other.get(key, []) for other in groups[1:]]
        if all(lists):
            for combo in product(*lists):
                result[sum(combo, ())] += 1
    return result


def reference_window_join_multiset(
    schedule_a: Iterable[PyTuple[float, Any]],
    schedule_b: Iterable[PyTuple[float, Any]],
    schema_a: Schema,
    schema_b: Schema,
    window_ms: float,
    field_a: str = "key",
    field_b: str = "key",
) -> CounterType:
    """The sliding-window equi-join's result multiset.

    A pair qualifies when the two arrival timestamps differ by at most
    *window_ms* (the later tuple still sees the earlier one in state).
    """
    index_a = schema_a.index_of(field_a)
    index_b = schema_b.index_of(field_b)
    by_key: dict = {}
    for tup in _tuples_of(schedule_b):
        by_key.setdefault(tup.values[index_b], []).append(tup)
    result: CounterType = Counter()
    for tup_a in _tuples_of(schedule_a):
        for tup_b in by_key.get(tup_a.values[index_a], []):
            if abs(tup_a.ts - tup_b.ts) <= window_ms:
                result[tup_a.values + tup_b.values] += 1
    return result
