"""A bisect-based interval index over range punctuation patterns.

The paper's prefix-consistency assumption (Section 2.2) says the
join-attribute patterns of any two punctuations are either *equal* or
*disjoint*.  For :class:`~repro.punctuations.patterns.Range` patterns
that means the live ranges form a set of non-overlapping intervals —
exactly the shape a sorted array answers point queries on in
O(log n) with :mod:`bisect`, instead of the O(n) scan the store's
``_general`` list needs.

:class:`RangeIntervalIndex` keeps the distinct live ranges sorted by
low bound.  Under disjointness, a value can only be covered by the
range whose low bound is the greatest one ≤ the value — or, when the
value *equals* an exclusive low bound, by the range just before that
one — so a point query inspects at most two candidates.

The index is defensive about its own assumptions:

* ranges with non-numeric bounds cannot be ordered against arbitrary
  values, so :meth:`add` refuses them (returns ``False``) and the
  caller keeps them in its linear-scan fallback;
* if an inserted range *overlaps* an existing one (prefix consistency
  violated — possible when the store's optional checker is off, e.g.
  under the ``trust`` fault policy with a faulty source), the index
  flags itself inconsistent and :meth:`query` returns ``None``,
  telling the caller to fall back to a linear scan over
  :meth:`items`.  Correctness never depends on the assumption.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Any, Dict, List, Optional, Tuple as PyTuple

from repro.punctuations.patterns import Range

_NEG_INF = float("-inf")


def _low_key(pattern: Range) -> float:
    """Sort key of a range: its low bound, ``-inf`` when unbounded."""
    return _NEG_INF if pattern.low is None else pattern.low


def _indexable(pattern: Range) -> bool:
    """Can this range participate in a numerically ordered index?"""
    for bound in (pattern.low, pattern.high):
        if bound is not None and not isinstance(bound, (int, float)):
            return False
    return True


def _overlaps(a: Range, b: Range) -> bool:
    """Do two (indexable, non-equal) ranges share any value?"""
    if _low_key(a) > _low_key(b):
        a, b = b, a
    # a starts at or before b; they overlap iff a reaches b's start.
    if b.low is None:
        return True  # both unbounded below
    if a.high is None:
        return True
    if a.high > b.low:
        return True
    if a.high == b.low:
        return a.high_inclusive and b.low_inclusive
    return False


class RangeIntervalIndex:
    """Sorted-interval index mapping a point to the pids covering it.

    Stores ``Range -> [pid, ...]`` (pids in arrival order; equal
    patterns share one entry) plus a parallel pair of arrays sorted by
    low bound for bisection.  All mutation is O(n) worst case (list
    insert/remove) but n is the number of *distinct live ranges*, which
    stays small; queries are O(log n).
    """

    __slots__ = ("pids", "_low_keys", "_ranges", "consistent")

    def __init__(self) -> None:
        #: Live range -> its pids.  Empty when no range is live, which
        #: callers test as a plain dict, without a method call.
        self.pids: Dict[Range, List[int]] = {}
        self._low_keys: List[float] = []
        self._ranges: List[Range] = []
        #: False once an overlapping insert was seen; queries then
        #: return ``None`` and the caller must scan :meth:`items`.
        self.consistent = True

    def __len__(self) -> int:
        return sum(len(ids) for ids in self.pids.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, pattern: Range, pid: int) -> bool:
        """Index *pattern* under *pid*; ``False`` if not indexable."""
        if not _indexable(pattern):
            return False
        ids = self.pids.get(pattern)
        if ids is not None:
            ids.append(pid)
            return True
        self.pids[pattern] = [pid]
        key = _low_key(pattern)
        pos = bisect_right(self._low_keys, key)
        if self.consistent:
            for neighbour in (pos - 1, pos):
                if 0 <= neighbour < len(self._ranges) and _overlaps(
                    self._ranges[neighbour], pattern
                ):
                    self.consistent = False
                    break
        insort(self._low_keys, key)
        self._ranges.insert(pos, pattern)
        return True

    def remove(self, pattern: Range, pid: int) -> bool:
        """Drop *pid*; ``False`` if the pattern was never indexed."""
        ids = self.pids.get(pattern)
        if ids is None:
            return False
        ids.remove(pid)
        if not ids:
            del self.pids[pattern]
            # Find the exact slot among equal low keys.
            key = _low_key(pattern)
            pos = bisect_right(self._low_keys, key) - 1
            while pos >= 0 and self._low_keys[pos] == key:
                if self._ranges[pos] == pattern:
                    del self._low_keys[pos]
                    del self._ranges[pos]
                    if not self.consistent:
                        self._reprobe_consistency()
                    break
                pos -= 1
        return True

    def _reprobe_consistency(self) -> None:
        """Re-check disjointness after a removal; re-enable if clean.

        Once an overlapping insert flags the index inconsistent, every
        query falls back to a linear scan — but a purge may remove the
        offending range, making the survivors disjoint again.  Sorted by
        low bound, any overlap among disjoint-or-overlapping intervals
        implies an *adjacent* overlap (an interval reaching past its
        successor's start), so one adjacent-pair sweep is sufficient.
        """
        ranges = self._ranges
        for index in range(len(ranges) - 1):
            if _overlaps(ranges[index], ranges[index + 1]):
                return
        self.consistent = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, value: Any) -> Optional[List[int]]:
        """Pids of ranges covering *value* (arrival order, usually ≤1 range).

        Returns ``None`` when the index cannot answer — overlapping
        ranges were inserted, or the value is not comparable with the
        numeric bounds — and the caller must fall back to scanning
        :meth:`items`.
        """
        if not self.consistent:
            return None
        ranges = self._ranges
        if not ranges:
            return []
        if not isinstance(value, (int, float)):
            # Numeric bounds never match non-numeric values
            # (Range.matches turns the TypeError into False).
            return []
        pos = bisect_right(self._low_keys, value)
        # Candidate 1: greatest low bound <= value.  Candidate 2: the
        # range before it, needed when candidate 1's low *equals* the
        # value but is exclusive (e.g. (5, 9] misses 5, [1, 5] takes it).
        for candidate in (pos - 1, pos - 2):
            if candidate < 0:
                continue
            pattern = ranges[candidate]
            if pattern.matches(value):
                return self.pids[pattern]
            if _low_key(pattern) != value:
                break  # further-left ranges end even earlier
        return []

    def has_pattern(self, pattern: Range) -> bool:
        """Is this exact range pattern live in the index?"""
        return pattern in self.pids

    def items(self) -> List[PyTuple[Range, List[int]]]:
        """All live ``(range, pids)`` pairs, for linear fallback scans."""
        return [(pattern, self.pids[pattern]) for pattern in self._ranges]
