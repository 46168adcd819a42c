"""Unit tests for the metrics sampler."""

import pytest

from repro.errors import SimulationError
from repro.experiments.harness import pjoin_factory, run_join_experiment
from repro.metrics.collector import MetricsCollector
from repro.metrics.series import TimeSeries
from repro.workloads import generate_workload


def test_samples_at_fixed_intervals(engine):
    collector = MetricsCollector(engine, interval_ms=10.0)
    counter = {"n": 0}
    collector.register_gauge("n", lambda: counter["n"])
    collector.start(horizon_ms=35.0)
    engine.schedule(15.0, lambda: counter.update(n=5))
    engine.run()
    series = collector["n"]
    assert series.times == [0.0, 10.0, 20.0, 30.0]
    assert series.values == [0.0, 0.0, 5.0, 5.0]


def test_interval_must_be_positive(engine):
    with pytest.raises(SimulationError):
        MetricsCollector(engine, interval_ms=0)


def test_duplicate_gauge_rejected(engine):
    collector = MetricsCollector(engine)
    collector.register_gauge("x", lambda: 0)
    with pytest.raises(SimulationError):
        collector.register_gauge("x", lambda: 1)


def test_register_after_start_rejected(engine):
    collector = MetricsCollector(engine)
    collector.start(horizon_ms=10.0)
    with pytest.raises(SimulationError):
        collector.register_gauge("x", lambda: 0)


def test_double_start_rejected(engine):
    collector = MetricsCollector(engine)
    collector.start(horizon_ms=10.0)
    with pytest.raises(SimulationError):
        collector.start(horizon_ms=10.0)


def test_multiple_gauges_sampled_together(engine):
    collector = MetricsCollector(engine, interval_ms=5.0)
    collector.register_gauge("a", lambda: 1)
    collector.register_gauge("b", lambda: 2)
    collector.start(horizon_ms=5.0)
    engine.run()
    assert collector["a"].values == [1.0, 1.0]
    assert collector["b"].values == [2.0, 2.0]


def test_samples_after_end_of_stream_append_nothing(engine):
    collector = MetricsCollector(engine, interval_ms=10.0)
    collector.register_gauge("n", lambda: 1)
    eos = [-1.0]
    collector.end_of_stream = lambda: eos[0]
    collector.start(horizon_ms=50.0)
    engine.schedule(20.0, lambda: eos.__setitem__(0, engine.now))
    engine.run()
    assert collector["n"].times == [0.0, 10.0, 20.0]
    assert engine.now == 50.0  # the later sample events still ran


def test_harness_run_samples_nothing_after_end_of_stream(monkeypatch):
    """The horizon (4x the input's end time plus 1 s) lies past the
    sink's end-of-stream; the samples taken after it append nothing."""
    appended = []
    sampled = []
    append = vars(TimeSeries)["append"]
    sample = vars(MetricsCollector)["_sample"]

    def recording_append(self, time, value):
        appended.append(time)
        append(self, time, value)

    def recording_sample(self):
        sampled.append(self.engine.now)
        sample(self)

    monkeypatch.setattr(TimeSeries, "append", recording_append)
    monkeypatch.setattr(MetricsCollector, "_sample", recording_sample)
    workload = generate_workload(n_tuples_per_stream=200, seed=3)
    run = run_join_experiment(pjoin_factory(), workload, sample_interval_ms=50.0)
    eos = run.sink.eos_time
    assert eos >= 0
    assert any(time > eos for time in sampled)
    assert [time for time in appended if time > eos] == []
    assert run.state_series.times and run.state_series.times[-1] <= eos
