"""Purging and indexing by named values equal the full scans they replace.

A purge run tests only the join values that punctuations added since
its last run name, plus values the join inserted while covered; an
index build tags only entries holding a value a fresh punctuation
names.  This module checks both against full-scan references kept
here, on live runs over drawn configurations: PJoin eager and lazy,
with a memory threshold (disk portions, purge buffer, covered tuples
kept), under a memory governor (cold tier), with adaptive buckets and
as a 2-shard hot-key join (replicas), with on-the-fly dropping on and
off, the n-ary join with a static and an adaptive plan, an earlier
snapshot restored mid-run, and the ``repair`` policy retracting
punctuations on an injected violation.  Inputs draw constants,
enumerations, ranges and a closing wildcard, and equal values of
different types (``1``, ``1.0``, ``True``) on float and untyped join
fields, which must take the full scan.

Every ``remove_where`` call with candidates is replayed first on a
copy of the table by a per-entry full scan: the same entries must go,
in the same order, leaving the same memory dicts, cold runs and
counts.  Every index build is replayed by a walk over the whole state:
the same ``pid`` on every entry, the same counts and the same
``(scanned, unindexed, fresh, newly_indexed)``.  Each run is also
repeated with every store's ``values_since`` shadowed to return
``None``, which forces the full scans, and the two runs must log the
same removals, purge buffers, layouts, builds and results.  Runs on
valid input also carry the purge-safety shadow.
"""

import random
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.core.pjoin import PJoin
from repro.memory.budget import GovernorSpec
from repro.memory.policies import POLICIES
from repro.operators.sink import Sink
from repro.planner import PlannerSpec
from repro.punctuations.patterns import WILDCARD, Constant, EnumerationList, Range
from repro.punctuations.punctuation import Punctuation
from repro.query.plan import QueryPlan
from repro.shard.operator import sharded_pjoin
from repro.skew.manager import SkewSpec
from repro.skew.replica import HotKeyReplica
from repro.storage.hash_table import PartitionedHashTable
from repro.storage.partition import HybridPartition
from repro.tuples.schema import Field, Schema
from repro.tuples.tuple import Tuple
from repro.workloads.faults import inject_punctuation_violation
from tests.core.purge_safety import PurgeSafetyShadow

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KEY_TYPES = {"int": int, "str": str, "float": float, "untyped": None}

# ---------------------------------------------------------------------------
# Input: n valid punctuated streams over a sliding key window
# ---------------------------------------------------------------------------


def key_value(key_kind, k, rng):
    """Key *k* as a join value of the field's kind."""
    if key_kind == "int":
        return k
    if key_kind == "str":
        return f"k{k:04d}"
    variants = [k, float(k)]
    if key_kind == "untyped" and k in (0, 1):
        variants.append(bool(k))
    return rng.choice(variants)


def make_input(seed, n_streams, key_kind, kinds, wildcard_end, n_tuples,
               violable=False):
    """*n_streams* schedules that keep every punctuation's promise.

    A stream closes its oldest open key now and then and never draws a
    closed key again.  Closed keys are punctuated as constants, or
    gathered into an enumeration or a range; a stream may end with a
    wildcard.  With *violable*, stream 0 holds a constant punctuation
    for an injected violation to break: when it drew none, its oldest
    open key is closed by one at the end.
    """
    rng = random.Random(seed)
    dtype = KEY_TYPES[key_kind]
    schemas = [
        Schema([Field("key", dtype), Field("seq", int)], name=f"S{i}")
        for i in range(n_streams)
    ]
    schedules = [[] for _ in range(n_streams)]
    lo = [0] * n_streams
    hi = 6
    closed = [[] for _ in range(n_streams)]
    t = 0.0

    def punctuate(side, pattern):
        nonlocal t
        t += 0.01  # room for an injected violation right after it
        punct = Punctuation(schemas[side], [pattern, WILDCARD], ts=t)
        schedules[side].append((t, punct))

    for seq in range(n_tuples * n_streams):
        t += 0.01 + rng.random()
        side = rng.randrange(n_streams)
        k = rng.randrange(lo[side], hi)
        values = (key_value(key_kind, k, rng), seq)
        schedules[side].append((t, Tuple(schemas[side], values, ts=t)))
        if rng.random() < 0.2 and lo[side] < hi - 1:
            closed[side].append(lo[side])
            lo[side] += 1
            hi = max(hi, lo[side] + 6)
            kind = rng.choice(kinds)
            group = closed[side]
            if kind == "enum" and len(group) >= 2:
                members = {key_value(key_kind, k, rng) for k in group}
                if len(members) == len(group):
                    punctuate(side, EnumerationList(members))
                    group.clear()
            elif kind == "range" and len(group) >= 2:
                low = key_value(key_kind, group[0], rng)
                high = key_value(key_kind, group[-1], rng)
                punctuate(side, Range(low, high))
                group.clear()
            elif kind == "constant" or len(group) >= 3:
                for k in group:
                    punctuate(side, Constant(key_value(key_kind, k, rng)))
                group.clear()
    if violable and not closed[0] and not any(
        isinstance(item, Punctuation) and isinstance(item.patterns[0], Constant)
        for _t, item in schedules[0]
    ):
        closed[0].append(lo[0])
    for side in range(n_streams):
        for k in closed[side]:
            punctuate(side, Constant(key_value(key_kind, k, rng)))
        if wildcard_end:
            punctuate(side, WILDCARD)
    return schemas, schedules


# ---------------------------------------------------------------------------
# Full-scan references
# ---------------------------------------------------------------------------


def copy_table(table):
    """A table with fresh containers holding the same entries."""
    clone = PartitionedHashTable.__new__(PartitionedHashTable)
    clone.__dict__.update(table.__dict__)
    clone.partitions = []
    for part in table.partitions:
        twin = HybridPartition(part.index)
        twin.memory = {value: list(entries) for value, entries in part.memory.items()}
        twin.cold = [(value, list(entries)) for value, entries in part.cold]
        twin.disk = list(part.disk)
        twin.memory_count = part.memory_count
        twin.cold_count = part.cold_count
        twin.disk_count = part.disk_count
        clone.partitions.append(twin)
    return clone


def reference_remove(table, covered):
    """Ask about every memory and cold entry, bucket by bucket."""
    removed = []
    for part in table.partitions:
        for value in list(part.memory):
            if all(covered(entry.join_value) for entry in part.memory[value]):
                removed.extend(part.memory.pop(value))
        part.memory_count = sum(map(len, part.memory.values()))
        kept = []
        for value, entries in part.cold:
            if all(covered(entry.join_value) for entry in entries):
                removed.extend(entries)
            else:
                kept.append((value, entries))
        part.cold = kept
        part.cold_count = sum(len(entries) for _value, entries in kept)
    table.memory_count = sum(p.memory_count for p in table.partitions)
    table.cold_count = sum(p.cold_count for p in table.partitions)
    return removed


def reference_build(entries, fresh, counts, join_index):
    """Index-Build as the paper states it: a walk over the whole state."""
    counts = dict(counts)
    pids = []
    scanned = unindexed = newly = 0
    for pid, _punct in fresh:
        counts.setdefault(pid, 0)
    for entry in entries:
        scanned += 1
        pid = entry.pid
        if pid is None:
            unindexed += 1
            for fresh_pid, punct in fresh:
                if punct.patterns[join_index].matches(entry.join_value):
                    pid = fresh_pid
                    counts[pid] += 1
                    newly += 1
                    break
        pids.append(pid)
    return pids, counts, (scanned, unindexed, len(fresh), newly)


def layout(table, show):
    """Every portion of every bucket, entries shown through *show*."""
    return [
        (
            [(repr(value), [show(e) for e in entries]) for value, entries in part.memory.items()],
            [(repr(value), [show(e) for e in entries]) for value, entries in part.cold],
            [show(e) for e in part.disk],
            part.memory_count,
            part.cold_count,
            part.disk_count,
        )
        for part in table.partitions
    ] + [(table.memory_count, table.cold_count, table.disk_count)]


def signature(entry):
    return (repr(entry.tup.values), entry.ats, entry.dts, entry.pid)


class ReferenceCheck:
    """Shadows one run's purges and index builds (see module docstring)."""

    def __init__(self, force_full_scan):
        self.force_full_scan = force_full_scan
        self.log = []
        self.by_value_purges = 0
        self.named_builds = 0

    def attach(self, join):
        for number, side in enumerate(join.sides):
            if self.force_full_scan:
                side.store.values_since = lambda cursor, value_type: None
            side.table.remove_where = self._checked_remove(join.name, number, side)
            side.index.build_named = self._checked_build(join.name, number, side)

    def _checked_remove(self, name, number, side):
        table = side.table
        inner = table.remove_where

        def remove_where(covered, candidates=None):
            buffer = [signature(e) for e in side.purge_buffer]
            if candidates is None:
                removed = inner(covered)
            else:
                self.by_value_purges += 1
                clone = copy_table(table)
                expected = reference_remove(clone, covered)
                removed = inner(covered, candidates)
                assert list(map(id, removed)) == list(map(id, expected))
                assert layout(table, id) == layout(clone, id)
            self.log.append(
                ("purge", name, number, buffer, [signature(e) for e in removed],
                 layout(table, signature))
            )
            return removed

        return remove_where

    def _checked_build(self, name, number, side):
        index = side.index
        inner = index.build_named

        def build_named(table, purge_buffer, value_type):
            entries = list(chain(table.iter_all(), purge_buffer))
            fresh = index.store.since(index._cursor)
            pids, counts, stats = reference_build(
                entries, fresh, index._counts, index.store.join_index
            )
            if index.store.values_since(index._cursor, value_type) is not None:
                self.named_builds += 1
            result = inner(table, purge_buffer, value_type)
            got = (result.scanned, result.unindexed,
                   result.fresh_punctuations, result.newly_indexed)
            assert got == stats
            assert [e.pid for e in entries] == pids
            assert index._counts == counts
            # Each count is the number of entries tagged with its pid.
            tagged = [e.pid for e in entries if e.pid is not None]
            assert all(index._counts.get(pid, 0) == tagged.count(pid) for pid in set(tagged))
            assert sum(index._counts.values()) == len(tagged) == index.tagged
            self.log.append(("index", name, number, got, pids))
            return result

        return build_named


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def build_join(case, plan, schemas):
    config = PJoinConfig(
        purge_threshold=case["purge_threshold"],
        index_building=case["index"],
        propagation_mode=case["propagation"],
        on_the_fly_drop=case["drop"],
        memory_threshold=case.get("memory_threshold"),
        fault_policy=case.get("policy", "strict"),
    )
    governor = None
    if case.get("budget") is not None:
        governor = GovernorSpec(budget_tuples=case["budget"], policy=case["eviction"])
    fields = ["key"] * len(schemas)
    if case["join"] == "nary":
        planner = PlannerSpec(mode=case["planner"], reopt_interval=2)
        return NaryPJoin(
            plan.engine, plan.cost_model, schemas, fields,
            config=config, governor=governor, planner=planner,
        )
    if case.get("layer") == "hotkeys":
        skew = SkewSpec(adaptive=True, hot_keys=True, hot_key_share=0.02,
                        hot_key_check_every=8, hot_key_min_total=16,
                        min_split_occupancy=8)
        return sharded_pjoin(
            plan.engine, plan.cost_model, schemas[0], schemas[1], "key", "key", 2,
            config=config, governor=governor, skew=skew,
        )
    skew = None
    if case.get("layer") == "skew":
        skew = SkewSpec(adaptive=True, min_split_occupancy=4)
    return PJoin(
        plan.engine, plan.cost_model, schemas[0], schemas[1], "key", "key",
        config=config, governor=governor, skew=skew,
    )


def run_case(case, schemas, schedules, force_full_scan=False, safety=None):
    plan = QueryPlan()
    join = build_join(case, plan, schemas)
    check = ReferenceCheck(force_full_scan)
    inner = getattr(join, "shards", None) or [join]
    for op in inner:
        check.attach(op)
        if safety is not None:
            safety.attach(op)
    sink = Sink(plan.engine, plan.cost_model, keep_items=True)
    join.connect(sink)
    for port, schedule in enumerate(schedules):
        plan.add_source(schedule, join, port=port, name=f"S{port}")
    if case["rewind"]:
        end = max(schedule[-1][0] for schedule in schedules if schedule)
        saved = []
        plan.engine.schedule_at(end / 3, lambda: saved.append(join.snapshot_state()))
        plan.engine.schedule_at(end * 2 / 3, lambda: join.restore_state(saved[0]))
    plan.run()
    outcome = {
        "results": [(repr(t.values), t.ts) for t in sink.results],
        "punctuations": [(repr(p), p.ts) for p in sink.punctuations],
        "counters": repr(sorted(join.counters().items())),
        "events": plan.engine.events_executed,
        "finish": plan.engine.now,
        "log": check.log,
    }
    return outcome, check


@st.composite
def cases(draw):
    join = draw(st.sampled_from(["pjoin", "pjoin", "nary"]))
    case = {
        "join": join,
        "seed": draw(st.integers(0, 100_000)),
        "key_kind": draw(st.sampled_from(["int", "int", "str", "float", "untyped"])),
        "kinds": draw(st.lists(st.sampled_from(["constant", "enum", "range"]),
                               min_size=1, max_size=3, unique=True)),
        "wildcard_end": draw(st.booleans()),
        "drop": draw(st.sampled_from([True, True, True, False])),
        "purge_threshold": draw(st.sampled_from([1, 1, 2, 5])),
        "index": draw(st.sampled_from(["eager", "lazy"])),
        "budget": draw(st.sampled_from([None, None, 10, 30])),
        "eviction": draw(st.sampled_from(sorted(POLICIES))),
        "rewind": draw(st.booleans()),
        "n_tuples": draw(st.integers(30, 90)),
    }
    if join == "nary":
        case["planner"] = draw(st.sampled_from(["static", "adaptive"]))
        case["propagation"] = draw(st.sampled_from(["off", "push_count"]))
        return case
    layer = draw(st.sampled_from(["plain", "disk", "skew", "hotkeys", "repair"]))
    case["layer"] = layer
    case["propagation"] = draw(st.sampled_from(["off", "push_count", "push_pairs"]))
    if layer == "disk":
        case["memory_threshold"] = draw(st.sampled_from([8, 20]))
    if layer in ("skew", "hotkeys"):
        case["rewind"] = False  # the skew layer refuses checkpoints
    if layer == "repair":
        case["policy"] = "repair"
        case["propagation"] = "off"  # a propagated punctuation is never retracted
        case["kinds"] = sorted(set(case["kinds"]) | {"constant"})
    return case


def make_case_input(case):
    n_streams = 3 if case["join"] == "nary" else 2
    repair = case.get("policy") == "repair"
    schemas, schedules = make_input(
        case["seed"], n_streams, case["key_kind"], case["kinds"],
        case["wildcard_end"], case["n_tuples"], violable=repair,
    )
    if repair:
        violated = inject_punctuation_violation(
            schedules[0], schemas[0], "key", seed=case["seed"]
        )
        schedules = [violated.schedule] + schedules[1:]
    return schemas, schedules


def check_case(case):
    schemas, schedules = make_case_input(case)
    valid = case.get("policy") != "repair"
    safety = PurgeSafetyShadow() if valid else None
    outcome, check = run_case(case, schemas, schedules, safety=safety)
    reference, full = run_case(case, schemas, schedules, force_full_scan=True)
    assert full.by_value_purges == 0 and full.named_builds == 0
    if case["key_kind"] in ("float", "untyped") or not case["drop"]:
        assert check.by_value_purges == 0
    if case["key_kind"] in ("float", "untyped"):
        assert check.named_builds == 0
    for key in ("results", "punctuations", "counters", "events", "finish"):
        assert outcome[key] == reference[key], key
    assert len(outcome["log"]) == len(reference["log"])
    for step, (got, expected) in enumerate(zip(outcome["log"], reference["log"])):
        assert got == expected, step
    if safety is not None:
        assert safety.violations == []
    return check


@SETTINGS
@given(case=cases())
def test_named_purge_and_index_equal_the_full_scans(case):
    check_case(case)


# ---------------------------------------------------------------------------
# Fixed cases: each one reaches the path it names
# ---------------------------------------------------------------------------

BASE = {
    "seed": 7, "key_kind": "int", "kinds": ["constant"], "wildcard_end": False,
    "drop": True, "purge_threshold": 1, "index": "eager", "budget": None,
    "eviction": "lru", "rewind": False, "n_tuples": 120, "propagation": "push_count",
}


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"join": "pjoin", "layer": "plain"}, id="pjoin-eager"),
        pytest.param({"join": "pjoin", "layer": "plain", "purge_threshold": 5,
                      "index": "lazy", "kinds": ["enum", "constant"]}, id="pjoin-lazy-enum"),
        pytest.param({"join": "pjoin", "layer": "disk", "memory_threshold": 8},
                     id="pjoin-kept-for-disk"),
        pytest.param({"join": "pjoin", "layer": "plain", "budget": 10}, id="pjoin-governed"),
        pytest.param({"join": "pjoin", "layer": "skew", "purge_threshold": 5},
                     id="pjoin-adaptive-buckets"),
        pytest.param({"join": "pjoin", "layer": "hotkeys", "purge_threshold": 5},
                     id="pjoin-hot-key-replicas"),
        pytest.param({"join": "pjoin", "layer": "plain", "rewind": True,
                      "purge_threshold": 5}, id="pjoin-rewind"),
        pytest.param({"join": "pjoin", "layer": "repair", "policy": "repair",
                      "propagation": "off"}, id="pjoin-repair"),
        pytest.param({"join": "pjoin", "layer": "plain", "key_kind": "str",
                      "kinds": ["enum", "range", "constant"], "wildcard_end": True},
                     id="pjoin-str-every-pattern"),
        pytest.param({"join": "nary", "planner": "adaptive", "purge_threshold": 4,
                      "budget": 10}, id="nary-adaptive-governed"),
        pytest.param({"join": "nary", "planner": "static", "rewind": True,
                      "purge_threshold": 5, "seed": 9}, id="nary-static-rewind"),
    ],
)
def test_candidate_paths_engage(overrides):
    check = check_case({**BASE, **overrides})
    assert check.by_value_purges > 0
    assert check.named_builds > 0


# Drawn cases that once failed, kept as fixed inputs.
DRAWN = [
    # Stream 0 drew only enumerations: the violation needed a constant.
    pytest.param({
        "join": "pjoin", "seed": 34, "key_kind": "int",
        "kinds": ["constant", "enum"], "wildcard_end": False, "drop": True,
        "purge_threshold": 1, "index": "eager", "budget": None,
        "eviction": "largest-partition-first", "rewind": False, "n_tuples": 30,
        "layer": "repair", "propagation": "off", "policy": "repair",
    }, id="repair-no-constant-drawn"),
]


@pytest.mark.parametrize("case", DRAWN)
def test_drawn_cases(case):
    check_case(case)


@pytest.mark.parametrize("key_kind", ["float", "untyped"])
def test_equal_values_of_different_types_take_the_full_scans(key_kind):
    case = {**BASE, "join": "pjoin", "layer": "plain", "key_kind": key_kind}
    check = check_case(case)
    assert check.by_value_purges == 0 and check.named_builds == 0


def test_a_covered_replica_is_purged_by_the_next_run(ab_schemas):
    """A hot-key replica skips the drop check, so its value is noted."""
    schema_a, schema_b = ab_schemas
    plan = QueryPlan()
    join = PJoin(plan.engine, plan.cost_model, schema_a, schema_b, "key", "key")
    join.push(Punctuation.on_field(schema_a, "key", 5), 0)
    join.push(HotKeyReplica(Tuple(schema_b, (5, 0))), 1)
    plan.run()
    assert join.sides[1].memory_size == 1
    join.push(Punctuation.on_field(schema_a, "key", 6), 0)  # the next purge run
    plan.run()
    assert join.sides[1].memory_size == 0
