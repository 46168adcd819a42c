"""FrequencySketch unit and property tests.

The load-bearing property (the skew layer's decisions inherit it): on
streams with at most ``top_k`` distinct keys the SpaceSaving counts are
*exact* — no monitor is ever evicted — and on arbitrary streams the
estimate never underestimates (SpaceSaving for monitored keys,
count-min for the rest).

The sketch evicts through a lazily repaired heap and folds count-min
increments in batches.  :class:`MinScanSketch` keeps the direct form (a
scan of every monitor per eviction, every count-min row updated per
arrival) as the reference: the sketch must match it in every state and
answer, alone and inside a join.
"""

import contextlib
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.skew.manager
from repro.core.config import PJoinConfig
from repro.errors import ConfigError
from repro.experiments.harness import (
    governed,
    pjoin_factory,
    run_join_experiment,
    sharding,
    skewed,
)
from repro.memory.budget import GovernorSpec
from repro.skew.manager import SkewSpec
from repro.skew.sketch import _MASK64, _ROW_MULTIPLIERS, FrequencySketch
from repro.storage.hash_table import stable_hash
from repro.workloads.generator import generate_workload

KEYS = st.one_of(st.integers(0, 99), st.text(min_size=1, max_size=3))


class MinScanSketch:
    """The reference sketch: each eviction scans every monitor for the
    least ``(count, repr)``, first in dict (admission) order among
    ties, and each arrival updates every count-min row."""

    def __init__(self, top_k: int = 32, width: int = 1024, depth: int = 4) -> None:
        self.top_k = top_k
        self.width = width
        self.depth = depth
        self.total = 0
        self._monitored: Dict[Any, Tuple[int, int]] = {}
        self._rows = [[0] * width for _ in range(depth)]
        self.evictions = 0

    def observe(self, value: Any, hash_value: Optional[int] = None, count: int = 1) -> None:
        if hash_value is None:
            hash_value = stable_hash(value)
        self.total += count
        h = hash_value & _MASK64
        for row in range(self.depth):
            mixed = (h * _ROW_MULTIPLIERS[row] + row) & _MASK64
            self._rows[row][mixed % self.width] += count
        monitored = self._monitored
        entry = monitored.get(value)
        if entry is not None:
            monitored[value] = (entry[0] + count, entry[1])
            return
        if len(monitored) < self.top_k:
            monitored[value] = (count, 0)
            return
        victim = min(monitored, key=lambda v: (monitored[v][0], repr(v)))
        floor = monitored.pop(victim)[0]
        monitored[value] = (floor + count, floor)
        self.evictions += 1

    def estimate(self, value: Any, hash_value: Optional[int] = None) -> int:
        entry = self._monitored.get(value)
        if entry is not None:
            return entry[0]
        if hash_value is None:
            hash_value = stable_hash(value)
        h = hash_value & _MASK64
        best = None
        for row in range(self.depth):
            mixed = (h * _ROW_MULTIPLIERS[row] + row) & _MASK64
            cell = self._rows[row][mixed % self.width]
            if best is None or cell < best:
                best = cell
        return best if best is not None else 0

    def topk(self) -> List[Tuple[Any, int, int]]:
        return sorted(
            ((value, count, error) for value, (count, error) in self._monitored.items()),
            key=lambda item: (-item[1], repr(item[0])),
        )

    def is_exact(self) -> bool:
        return self.evictions == 0

    def counters(self) -> Dict[str, int]:
        return {
            "observed": self.total,
            "monitored": len(self._monitored),
            "evictions": self.evictions,
        }


class Tied:
    """A join value whose ``repr`` every instance shares, so exact
    ``(count, repr)`` ties fall to admission order."""

    def __init__(self, key: int) -> None:
        self.key = key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tied) and other.key == self.key

    def __hash__(self) -> int:
        return hash(("Tied", self.key))

    def __repr__(self) -> str:
        return "Tied"


class CountedRepr:
    """A join value that counts the ``repr`` calls made on any instance."""

    calls = 0

    def __init__(self, key: int) -> None:
        self.key = key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountedRepr) and other.key == self.key

    def __hash__(self) -> int:
        return hash(("CountedRepr", self.key))

    def __repr__(self) -> str:
        CountedRepr.calls += 1
        return f"CountedRepr({self.key})"


# Ints, strs and floats (1 and 1.0 are one dict key; 0.0 and -0.0 are
# one key with two reprs) plus Tied instances.
POOL_VALUES = st.one_of(
    st.integers(-3, 40),
    st.text(alphabet="abc", max_size=2),
    st.floats(allow_nan=False, width=16),
    st.builds(Tied, st.integers(0, 5)),
)
UNSEEN = "never observed"


@st.composite
def sketch_runs(draw: Any) -> Tuple[Tuple[int, int, int], List[Tuple[Any, int, bool]]]:
    """A sketch geometry and steps ``(value, count, query after)`` whose
    values repeat, drawn from a pool."""
    geometry = (
        draw(st.integers(1, 40)),
        draw(st.sampled_from([1, 7, 64, 1024])),
        draw(st.integers(1, 6)),
    )
    pool = draw(st.lists(POOL_VALUES, min_size=1, max_size=60))
    # A drawn length: hypothesis keeps plain lists short, and evictions
    # that must repair stale entries need long streams.
    length = draw(st.integers(0, 300))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(pool),
            st.integers(1, 5),
            st.integers(0, 9).map(lambda roll: roll == 0),
        ),
        min_size=length,
        max_size=length,
    ))
    return geometry, steps


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"top_k": 0}, {"width": 0}, {"depth": 0}, {"depth": 7},
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FrequencySketch(**kwargs)


class TestExactness:
    @given(st.lists(st.sampled_from("abcdefgh"), max_size=200))
    def test_topk_exact_with_few_distinct_keys(self, stream):
        """<= top_k distinct keys -> every count exact, zero evictions."""
        sketch = FrequencySketch(top_k=8, width=64, depth=2)
        for key in stream:
            sketch.observe(key)
        truth = Counter(stream)
        assert sketch.is_exact()
        assert sketch.evictions == 0
        assert {v: c for v, c, _err in sketch.topk()} == dict(truth)
        for key, count in truth.items():
            assert sketch.estimate(key) == count

    @given(st.lists(KEYS, max_size=300))
    def test_estimate_never_underestimates(self, stream):
        sketch = FrequencySketch(top_k=4, width=32, depth=3)
        for key in stream:
            sketch.observe(key)
        truth = Counter(stream)
        assert sketch.total == len(stream)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count


class TestDeterminism:
    def test_same_stream_same_state(self):
        streams = [FrequencySketch(top_k=3, width=16, depth=2)
                   for _ in range(2)]
        for sketch in streams:
            for key in [1, 2, 2, 3, 3, 3, 4, 5, 1, 3]:
                sketch.observe(key)
        a, b = streams
        assert a.topk() == b.topk()
        assert a.counters() == b.counters()

    def test_topk_orders_hottest_first(self):
        sketch = FrequencySketch(top_k=8)
        for key, count in [("cold", 1), ("hot", 9), ("warm", 4)]:
            sketch.observe(key, count=count)
        assert [v for v, _c, _e in sketch.topk()] == ["hot", "warm", "cold"]

    def test_eviction_carries_floor_as_error(self):
        sketch = FrequencySketch(top_k=2, width=16, depth=2)
        sketch.observe("a", count=5)
        sketch.observe("b", count=2)
        sketch.observe("c")  # evicts "b" (the minimum), inherits its floor
        assert not sketch.is_exact()
        assert sketch.evictions == 1
        entries = {v: (c, e) for v, c, e in sketch.topk()}
        assert entries["c"] == (3, 2)  # floor 2 + the one arrival, error 2
        assert sketch.estimate("c") >= 1


class TestShare:
    def test_share_of_empty_sketch_is_zero(self):
        assert FrequencySketch().share("x") == 0.0

    def test_share_tracks_fraction(self):
        sketch = FrequencySketch()
        sketch.observe("hot", count=30)
        sketch.observe("cold", count=10)
        assert sketch.share("hot") == pytest.approx(0.75)


class TestCountValidation:
    def test_count_below_one_rejected(self):
        """A negative count would let an estimate fall below the arrivals."""
        sketch = FrequencySketch(top_k=1, width=1, depth=1)
        sketch.observe("a", count=5)
        for count in (-3, 0):
            with pytest.raises(ConfigError):
                sketch.observe("b", count=count)
        assert sketch.estimate("a") == 5
        assert sketch.counters() == {"observed": 5, "monitored": 1, "evictions": 0}


def assert_same_answers(sketch, reference, seen):
    assert sketch.topk() == reference.topk()
    assert sketch.counters() == reference.counters()
    for value in [*seen, UNSEEN]:
        assert sketch.estimate(value) == reference.estimate(value)
    # UNSEEN is never monitored, so its estimate folded every pending
    # increment: the rows are now the reference's, cell for cell.
    assert sketch._rows == reference._rows


class TestAgainstMinScanReference:
    @settings(max_examples=300, deadline=None)
    @given(sketch_runs())
    def test_matches_reference_after_every_observation(self, run):
        geometry, steps = run
        sketch = FrequencySketch(*geometry)
        reference = MinScanSketch(*geometry)
        seen = []
        for value, count, query in steps:
            sketch.observe(value, count=count)
            reference.observe(value, count=count)
            seen.append(value)
            assert list(sketch._monitored.items()) == \
                list(reference._monitored.items())
            assert sketch.evictions == reference.evictions
            assert sketch.total == reference.total
            assert sketch.is_exact() == reference.is_exact()
            if query:
                assert_same_answers(sketch, reference, seen)
        assert_same_answers(sketch, reference, seen)

    def test_exact_ties_fall_to_admission_order(self):
        sketch = FrequencySketch(top_k=3, width=8, depth=2)
        reference = MinScanSketch(top_k=3, width=8, depth=2)
        stream = [Tied(0), Tied(1), Tied(2), Tied(1), Tied(3), Tied(4), Tied(2)]
        for value in stream:
            sketch.observe(value)
            reference.observe(value)
        assert list(sketch._monitored.items()) == list(reference._monitored.items())
        assert [v.key for v, _c, _e in sketch.topk()] == \
            [v.key for v, _c, _e in reference.topk()]


class TestWorkPerObservation:
    def test_eviction_makes_one_repr_call_and_topk_none(self):
        """Once full, an eviction reprs only the admitted value, and
        topk() reprs nothing: reprs are cached at admission."""
        top_k = 32
        sketch = FrequencySketch(top_k=top_k)
        for key in range(top_k):
            sketch.observe(CountedRepr(key), hash_value=key, count=1 + key % 3)
        for key in range(top_k, top_k + 200):
            # Bump a monitored key so evictions must repair stale entries.
            bumped = sketch.topk()[key % top_k][0]
            sketch.observe(bumped, hash_value=bumped.key)
            CountedRepr.calls = 0
            sketch.observe(CountedRepr(key), hash_value=key)
            assert sketch.evictions == key - top_k + 1
            assert CountedRepr.calls <= 1
            CountedRepr.calls = 0
            sketch.topk()
            assert CountedRepr.calls == 0


def counters_of(experiment_run):
    counters = {
        key: value for key, value in experiment_run.join.counters().items()
        if key.startswith(("skew.sketch_", "governor."))
    }
    router = getattr(experiment_run.join, "router", None)
    if router is not None:
        counters.update(
            (f"router.{key}", value) for key, value in router.counters().items()
        )
    return counters


def zipf_input(tuples):
    return generate_workload(
        n_tuples_per_stream=tuples, punct_spacing_a=10, punct_spacing_b=10,
        active_values=48, zipf_exponent=1.4, seed=3,
    )


class TestJoinMatchesReferenceSketch:
    """Each configuration runs with the reference sketch swapped in for
    ``repro.skew.manager.FrequencySketch`` (every ``SkewSpec.make_sketch``
    builds from it: each shard's manager, the hot-key router, and through
    the manager the skew-aware governor) and as built; both runs must
    give the same ordered results and sketch, governor and router
    counters."""

    @staticmethod
    def run_pair(monkeypatch, layers, config, workload):
        def run(label):
            with contextlib.ExitStack() as stack:
                for layer in layers():
                    stack.enter_context(layer)
                return run_join_experiment(
                    pjoin_factory(config), workload, label=label, keep_items=True
                )

        built = run("built")
        with monkeypatch.context() as patch:
            patch.setattr(repro.skew.manager, "FrequencySketch", MinScanSketch)
            reference = run("reference")
        assert [(t.values, t.ts) for t in built.sink.results] == \
            [(t.values, t.ts) for t in reference.sink.results]
        assert counters_of(built) == counters_of(reference)
        return built

    def test_skew_aware_governor(self, monkeypatch):
        calls = {"estimates": 0, "fold_reads": 0}
        estimate = FrequencySketch.estimate

        def counted_estimate(self, value, hash_value=None):
            calls["estimates"] += 1
            if value not in self._monitored and self._pending:
                calls["fold_reads"] += 1
            return estimate(self, value, hash_value)

        monkeypatch.setattr(FrequencySketch, "estimate", counted_estimate)
        built = self.run_pair(
            monkeypatch,
            lambda: [
                governed(GovernorSpec(budget_tuples=40, policy="skew-aware")),
                skewed(SkewSpec()),
            ],
            PJoinConfig(purge_threshold=10),
            zipf_input(600),
        )
        counters = built.join.counters()
        assert counters["governor.spills"] > 0
        assert counters["skew.sketch_evictions"] > 0
        # The governor read estimates of unmonitored keys with count-min
        # increments still pending, so the fold before a read ran.
        assert calls["fold_reads"] > 0

    def test_zipf_shards(self, monkeypatch):
        skew = SkewSpec(
            adaptive=True, hot_keys=True, hot_key_share=0.02,
            min_split_occupancy=8,
        )
        built = self.run_pair(
            monkeypatch,
            lambda: [sharding(2), skewed(skew)],
            PJoinConfig(purge_threshold=10, fault_policy="quarantine"),
            zipf_input(400),
        )
        router = built.join.router.counters()
        assert router["hot_activations"] > 0
        assert router["sketch_evictions"] > 0
