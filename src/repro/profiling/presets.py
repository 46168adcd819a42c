"""Pinned profiling presets (workload + join under measurement).

Each preset mirrors one of the bench suite's cases so the per-layer
numbers line up with the wall-clock trajectory in ``BENCH_<rev>.json``:
a seeded figure-style workload and the join the figure measures.

A preset also declares which feature layers it can toggle.  The obs,
governor and shard layers attach from the outside (run options with a
tracer, an infinite governor budget, one shard) and work for every preset;
the resilience layer is a *config* choice (fault policy) that only the
PJoin factory exposes, so XJoin/SHJ presets leave it out of their grid
rather than pretending to toggle it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import PJoinConfig
from repro.errors import ConfigError
from repro.experiments.harness import (
    JoinFactory,
    pjoin_factory,
    shj_factory,
    xjoin_factory,
)
from repro.workloads.generator import GeneratedWorkload, generate_workload

#: The toggleable feature layers, in grid order.
FEATURES: Tuple[str, ...] = ("obs", "resilience", "governor", "shard")


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


@dataclass(frozen=True)
class ProfilePreset:
    """One pinned profiling workload and the join it measures."""

    name: str
    description: str
    algo: str  # "pjoin" | "xjoin" | "shj"
    tuples: int = 10_000
    spacing_a: float = 40.0
    spacing_b: float = 40.0
    seed: int = 5
    purge_threshold: int = 1
    features: Tuple[str, ...] = FEATURES

    def workload(self, scale: float = 1.0) -> GeneratedWorkload:
        """The preset's seeded workload (generation is untimed)."""
        return generate_workload(
            n_tuples_per_stream=_scaled(self.tuples, scale),
            punct_spacing_a=self.spacing_a,
            punct_spacing_b=self.spacing_b,
            seed=self.seed,
        )

    def factory(self, resilience: bool = False) -> JoinFactory:
        """The join factory, with the resilience layer on or off."""
        if self.algo == "pjoin":
            return pjoin_factory(PJoinConfig(
                purge_threshold=self.purge_threshold,
                fault_policy="quarantine" if resilience else "strict",
            ))
        if resilience:
            raise ConfigError(
                f"preset {self.name!r} ({self.algo}) cannot toggle the "
                "resilience layer; its factory has no fault-policy knob"
            )
        if self.algo == "xjoin":
            return xjoin_factory()
        if self.algo == "shj":
            return shj_factory()
        raise ConfigError(f"unknown preset algorithm {self.algo!r}")


PROFILE_PRESETS: Dict[str, ProfilePreset] = {
    preset.name: preset
    for preset in (
        ProfilePreset(
            "fig5_pjoin",
            "Figure 5 workload (40 t/p, seed 5), PJoin with eager purge",
            algo="pjoin",
        ),
        ProfilePreset(
            "fig5_xjoin",
            "Figure 5 workload (40 t/p, seed 5), XJoin comparator",
            algo="xjoin",
            features=("obs", "governor", "shard"),
        ),
        ProfilePreset(
            "fig5_shj",
            "Figure 5 workload (40 t/p, seed 5), symmetric hash join",
            algo="shj",
            features=("obs", "governor", "shard"),
        ),
        ProfilePreset(
            "fig8_pjoin_lazy",
            "Figure 8 workload (10 t/p, seed 9), PJoin with lazy purge (10)",
            algo="pjoin",
            spacing_a=10.0,
            spacing_b=10.0,
            seed=9,
            purge_threshold=10,
        ),
    )
}

#: Short names accepted on the command line.
ALIASES: Dict[str, str] = {
    "fig5": "fig5_pjoin",
    "fig8": "fig8_pjoin_lazy",
}


def resolve_preset(name: str) -> ProfilePreset:
    """Look up a preset by name or alias; raises ConfigError if unknown."""
    resolved = ALIASES.get(name, name)
    preset = PROFILE_PRESETS.get(resolved)
    if preset is None:
        known = sorted(PROFILE_PRESETS) + sorted(ALIASES)
        raise ConfigError(f"unknown profile preset {name!r}; choose from {known}")
    return preset
