"""The metrics sampler.

Samples registered gauges at fixed virtual-time intervals on the shared
simulation engine.  Sample events are pre-scheduled up to a horizon
fixed before the run (the harness takes the workload's end time times a
factor, plus a second), so the engine runs until the last of them even
when the plan finished long before.  A collector that can read the
plan's end-of-stream time (:attr:`MetricsCollector.end_of_stream`)
appends nothing after it: the later sample events still run, keeping
the event count and the final clock, but read no gauge.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import SimulationError
from repro.metrics.series import TimeSeries
from repro.sim.engine import SimulationEngine

Gauge = Callable[[], float]


class MetricsCollector:
    """Periodic sampling of named gauges into :class:`TimeSeries`.

    Parameters
    ----------
    engine:
        The shared simulation engine.
    interval_ms:
        Virtual time between samples.
    """

    def __init__(self, engine: SimulationEngine, interval_ms: float = 100.0) -> None:
        if interval_ms <= 0:
            raise SimulationError(f"interval_ms must be positive, got {interval_ms}")
        self.engine = engine
        self.interval_ms = interval_ms
        self._gauges: Dict[str, Gauge] = {}
        self.series: Dict[str, TimeSeries] = {}
        self._started = False
        # The end-of-stream time, negative until it is known; samples
        # later than it append nothing.  The harness reads its sink's.
        self.end_of_stream: Optional[Callable[[], float]] = None

    def register_gauge(self, name: str, gauge: Gauge) -> None:
        """Track ``gauge()`` under *name*; must precede :meth:`start`."""
        if self._started:
            raise SimulationError("cannot register gauges after start()")
        if name in self._gauges:
            raise SimulationError(f"gauge {name!r} is already registered")
        self._gauges[name] = gauge
        self.series[name] = TimeSeries(name=name)

    def start(self, horizon_ms: float) -> None:
        """Pre-schedule samples from now until *horizon_ms* (absolute)."""
        if self._started:
            raise SimulationError("collector already started")
        self._started = True
        sample = self._sample
        interval = self.interval_ms
        events = []
        time = self.engine.now
        while time <= horizon_ms:
            events.append((time, sample))
            time += interval
        # One batch: the engine reserves the tie-breaker sequence
        # numbers in list order, so execution order is identical to a
        # schedule_at() loop, and keeps only the next sample in its heap.
        self.engine.schedule_many(events)

    def _sample(self) -> None:
        now = self.engine.now
        if self.end_of_stream is not None and 0.0 <= self.end_of_stream() < now:
            return
        for name, gauge in self._gauges.items():
            self.series[name].append(now, float(gauge()))

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(interval={self.interval_ms:g}ms, "
            f"gauges={sorted(self._gauges)})"
        )
