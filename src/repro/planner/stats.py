"""Rolling per-stream statistics for the cost-based planner.

The collector does not instrument anything new: it snapshots the live
per-side counters the obs layer already exposes through the n-ary
join's :meth:`counters` registry (``side.<name>.state_size``,
``side.<name>.probe_count``, punctuation cadence, ...) and rolls the
cumulative values into windowed **rates** via exponential smoothing.
Each :meth:`StatsCollector.collect` call closes one window — in the
adaptive operator that window is the span between two punctuation-
aligned re-optimization boundaries.

The resulting :class:`StreamStats` per side carry exactly the signals
the cost model scores:

* ``state_size`` / ``avg_occupancy`` — how expensive probing this side
  is right now (bucket-chain scans charge per resident tuple);
* ``hit_rate`` / ``avg_matches`` — how selective a probe into this
  side is (a miss ends the probe pipeline early);
* ``arrival_rate`` — how often this side's tuples trigger probes into
  the *other* sides;
* ``punct_rate`` — this stream's punctuation cadence, the
  punctuation-driven state-savings signal unique to PJoin;
* ``purge_lag_ms`` — virtual time since the last purge run retired
  covered state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

_EPS = 1e-12

# The per-side counters the collector consumes, as published by
# NaryPJoin.counters() under "side.<side_name>.<key>".
SIDE_COUNTER_KEYS = (
    "state_size",
    "tuples_in",
    "probe_count",
    "probe_hits",
    "match_count",
    "probe_occupancy",
    "punct_count",
)
_ZEROS = (0.0,) * len(SIDE_COUNTER_KEYS)


@dataclass(frozen=True)
class StreamStats:
    """One side's rolled statistics at a collection boundary."""

    side: int
    name: str
    state_size: float        # resident tuples (gauge)
    arrival_rate: float      # tuples/ms arriving on this side (EWMA)
    punct_rate: float        # exploitable punctuations/ms (EWMA)
    hit_rate: float          # P(probe into this side finds >= 1 match)
    avg_matches: float       # mean matches per probe into this side
    avg_occupancy: float     # mean bucket tuples scanned per probe
    purge_lag_ms: float      # now - last purge completion

    def as_dict(self) -> Dict[str, float]:
        return {
            "state_size": self.state_size,
            "arrival_rate": self.arrival_rate,
            "punct_rate": self.punct_rate,
            "hit_rate": self.hit_rate,
            "avg_matches": self.avg_matches,
            "avg_occupancy": self.avg_occupancy,
            "purge_lag_ms": self.purge_lag_ms,
        }


def _ratio(num: float, den: float, fallback: float = 0.0) -> float:
    if den <= _EPS:
        return fallback
    return num / den


class StatsCollector:
    """Rolls an n-ary join's counter registry into per-side rates.

    The first :meth:`collect` call sees the whole run so far as one
    window; later calls blend each new window into the running rates
    with EWMA weight ``smoothing`` (1.0 = newest window only).
    """

    def __init__(self, join: Any, smoothing: float = 0.5) -> None:
        self.join = join
        self.smoothing = smoothing
        # A join's sides are fixed when it is built, and so are the
        # registry keys of their counters.
        self._names = [side.side_name for side in join.sides]
        self._keys = [
            [f"side.{name}.{key}" for key in SIDE_COUNTER_KEYS]
            for name in self._names
        ]
        self._prev_time: float = 0.0
        self._prev_cum: Optional[List[Tuple[float, ...]]] = None
        self._rates: Optional[List[Tuple[float, float]]] = None
        self._last: Optional[List[StreamStats]] = None
        self.collections = 0

    def collect(self, now: Optional[float] = None) -> List[StreamStats]:
        """Close the current window and return fresh per-side stats."""
        join = self.join
        if now is None:
            now = join.engine.now
        registry = join.counters()
        dt = now - self._prev_time
        if self._prev_cum is not None and dt <= _EPS and self._last is not None:
            return self._last  # zero-width window: keep the last stats
        # Each side's SIDE_COUNTER_KEYS, in order; a missing one reads 0.
        cum = [
            tuple([float(registry.get(key, 0.0)) for key in keys])
            for keys in self._keys
        ]
        prev_cum = self._prev_cum or [_ZEROS] * len(cum)
        stats: List[StreamStats] = []
        new_rates: List[Tuple[float, float]] = []
        purge_lag = now - float(getattr(join, "last_purge_ms", 0.0))
        alpha = self.smoothing
        for side, (name, current, prev) in enumerate(
            zip(self._names, cum, prev_cum)
        ):
            (state_size, tuples_in, probes, hits, matches, occupancy,
             puncts) = current
            (_, tuples_in_0, probes_0, hits_0, matches_0, occupancy_0,
             puncts_0) = prev
            arrival_rate = _ratio(tuples_in - tuples_in_0, dt)
            punct_rate = _ratio(puncts - puncts_0, dt)
            if self._rates is not None:
                old_arrival, old_punct = self._rates[side]
                arrival_rate = alpha * arrival_rate + (1.0 - alpha) * old_arrival
                punct_rate = alpha * punct_rate + (1.0 - alpha) * old_punct
            new_rates.append((arrival_rate, punct_rate))
            # Ratios prefer the window; a window without probes falls
            # back to the cumulative ratios (better than pretending 0).
            probes_w = probes - probes_0
            hit_rate = _ratio(
                hits - hits_0, probes_w, fallback=_ratio(hits, probes)
            )
            avg_matches = _ratio(
                matches - matches_0, probes_w, fallback=_ratio(matches, probes)
            )
            avg_occupancy = _ratio(
                occupancy - occupancy_0, probes_w,
                fallback=_ratio(occupancy, probes),
            )
            stats.append(
                StreamStats(
                    side=side,
                    name=name,
                    state_size=state_size,
                    arrival_rate=arrival_rate,
                    punct_rate=punct_rate,
                    hit_rate=min(1.0, hit_rate),
                    avg_matches=avg_matches,
                    avg_occupancy=avg_occupancy,
                    purge_lag_ms=max(0.0, purge_lag),
                )
            )
        self._prev_time = now
        self._prev_cum = cum
        self._rates = new_rates
        self._last = stats
        self.collections += 1
        return stats

    @property
    def last(self) -> Optional[List[StreamStats]]:
        """The stats of the most recent window, if any."""
        return self._last
