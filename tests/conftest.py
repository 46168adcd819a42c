"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.tuples.schema import Field, Schema
from repro.tuples.tuple import Tuple


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture
def cheap_cost_model() -> CostModel:
    """A cost model with tiny per-item costs, for logic-focused tests.

    Costs stay non-zero so event ordering still exercises the
    single-server queueing path.
    """
    return CostModel().scaled(0.001)


@pytest.fixture
def ab_schemas():
    """Two small typed stream schemas joined on ``key``."""
    schema_a = Schema([Field("key", int), Field("a_val", int)], name="A")
    schema_b = Schema([Field("key", int), Field("b_val", int)], name="B")
    return schema_a, schema_b


def make_tuple(schema: Schema, *values, ts: float = 0.0) -> Tuple:
    """Terse tuple construction for tests."""
    return Tuple(schema, values, ts=ts)


@pytest.fixture
def assert_jobs_match_serial(tmp_path):
    """Check that ``repro figures ARGV`` gives the same result with ``--jobs 2``.

    Both runs must exit alike and export the same figure JSON once the
    ``jobs`` manifest stamp is removed.  Returns the serial exit code.
    """

    def exported(directory):
        figures = {}
        for path in sorted(directory.glob("*.json")):
            figure = json.loads(path.read_text())
            for run in figure["runs"]:
                run["manifest"].pop("jobs", None)
            figures[path.name] = figure
        return figures

    def check(*argv):
        serial_dir, jobs_dir = tmp_path / "serial", tmp_path / "jobs2"
        serial = main(["figures", *argv, "--export", str(serial_dir)])
        jobs = main(["figures", *argv, "--jobs", "2", "--export", str(jobs_dir)])
        assert jobs == serial
        figures = exported(serial_dir)
        assert figures
        assert exported(jobs_dir) == figures
        return serial

    return check
