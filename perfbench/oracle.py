"""Oracles and input identity, computed from the generated input alone.

None of this is timed: it is the benchmark's own work, not the
program's.  The count oracle checks every timed run; the multiset
oracles check the traced run in full.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import product
from typing import Any, Dict, List

from repro.punctuations.punctuation import Punctuation
from repro.tuples.tuple import Tuple
from repro.workloads.reference import reference_join_multiset


def _key_groups(workload: Any) -> List[Dict[Any, List[Tuple]]]:
    """Per stream: join value -> that stream's tuples, in order."""
    groups = []
    for schedule, schema, field in zip(
        workload.schedules, workload.schemas, workload.join_fields
    ):
        index = schema.index_of(field)
        by_key: Dict[Any, List[Tuple]] = {}
        for _time, item in schedule:
            if isinstance(item, Tuple):
                by_key.setdefault(item.values[index], []).append(item)
        groups.append(by_key)
    return groups


def result_count(workload: Any) -> int:
    """How many results the full n-way equi-join produces."""
    groups = _key_groups(workload)
    total = 0
    for key, first in groups[0].items():
        count = len(first)
        for other in groups[1:]:
            count *= len(other.get(key, ()))
            if not count:
                break
        total += count
    return total


def nway_join_multiset(workload: Any) -> Counter:
    """The n-way equi-join's result multiset, columns in stream order."""
    groups = _key_groups(workload)
    result: Counter = Counter()
    for key, first in groups[0].items():
        lists = [first] + [other.get(key, []) for other in groups[1:]]
        if not all(lists):
            continue
        for combo in product(*lists):
            values: tuple = ()
            for tup in combo:
                values += tup.values
            result[values] += 1
    return result


def result_multiset(workload: Any) -> Counter:
    """The exact multiset every correct run must emit."""
    if len(workload.schedules) == 2:
        return reference_join_multiset(
            workload.schedules[0],
            workload.schedules[1],
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
        )
    return nway_join_multiset(workload)


def input_identity(workload: Any) -> Dict[str, Any]:
    """A digest of the input and its deterministic counts.

    Two commits that report the same digest ran identical inputs.
    """
    digest = hashlib.sha256()
    tuples = punctuations = 0
    for stream, schedule in enumerate(workload.schedules):
        for time, item in schedule:
            if isinstance(item, Tuple):
                tuples += 1
                line = f"{stream}|T|{time!r}|{item.values!r}\n"
            elif isinstance(item, Punctuation):
                punctuations += 1
                patterns = ",".join(repr(p) for p in item.patterns)
                line = f"{stream}|P|{time!r}|{patterns}\n"
            else:
                line = f"{stream}|?|{time!r}|{item!r}\n"
            digest.update(line.encode())
    return {
        "digest": digest.hexdigest()[:16],
        "tuples": tuples,
        "punctuations": punctuations,
        "items": tuples + punctuations,
    }
