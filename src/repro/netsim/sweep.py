"""Injection-rate sweeps: saturation throughput and latency-load curves.

Implements the paper's measurement protocol: simulate a ladder of offered
loads, flag each run as saturated per the sample-latency criterion, and
report the last rate before saturation as the network's throughput
(Figures 7-10).  :func:`latency_curve` keeps the whole ladder for the
latency-versus-load plots (Figures 11-13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.config import SimConfig
from repro.netsim.simulator import PatternTraffic, SimResult, Simulator, UniformTraffic
from repro.topology.jellyfish import Jellyfish
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SweepPoint", "latency_curve", "saturation_throughput"]

DEFAULT_RATES: Tuple[float, ...] = tuple(np.round(np.arange(0.05, 1.0001, 0.05), 4))


@dataclass(frozen=True)
class SweepPoint:
    """One ladder step: offered rate and the run's result."""

    rate: float
    result: SimResult


def check_ladder(rates: Sequence[float], stops: bool = True) -> None:
    """Reject a rate ladder that cannot be climbed.

    Every ladder must be non-empty.  A ladder that stops at its first
    saturated rung (``stops``) must also be strictly increasing: its
    answer is the last rung before that one, which is the highest
    unsaturated rate only when the rungs climb.
    """
    if len(rates) == 0:
        raise ConfigurationError("rates must be non-empty")
    if stops and any(b <= a for a, b in zip(rates, rates[1:])):
        raise ConfigurationError(
            "rates must be strictly increasing for a ladder that stops at "
            f"its first saturated rung, got {tuple(float(r) for r in rates)}"
        )


def _run_one(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic,
    rate: float,
    config: SimConfig,
    rng: np.random.Generator,
) -> SimResult:
    sim = Simulator(
        topology,
        paths,
        mechanism,
        traffic,
        rate,
        config=config,
        seed=np.random.default_rng(int(rng.integers(2**63))),
    )
    return sim.run()


def latency_curve(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic: UniformTraffic | PatternTraffic,
    rates: Sequence[float] = DEFAULT_RATES,
    config: SimConfig = SimConfig(),
    seed: SeedLike = 0,
    stop_after_saturation: bool = True,
) -> List[SweepPoint]:
    """Average packet latency at each offered load (Figures 11-13).

    Stops the ladder after the first saturated point by default — beyond
    saturation the latency is unbounded and the paper's plots end there;
    such a ladder must be strictly increasing (:func:`check_ladder`).
    """
    check_ladder(rates, stops=stop_after_saturation)
    rng = ensure_rng(seed)
    points: List[SweepPoint] = []
    for rate in rates:
        result = _run_one(topology, paths, mechanism, traffic, rate, config, rng)
        points.append(SweepPoint(rate=float(rate), result=result))
        if stop_after_saturation and result.saturated:
            break
    return points


def saturation_throughput(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic: UniformTraffic | PatternTraffic,
    rates: Sequence[float] = DEFAULT_RATES,
    config: SimConfig = SimConfig(),
    seed: SeedLike = 0,
) -> Tuple[float, List[SweepPoint]]:
    """The last offered load before saturation, plus the ladder behind it.

    Mirrors the paper: "we record the last injection rate before the
    network reaches the saturation point as the network throughput".  A
    network saturated even at the lowest rate reports 0.0.
    """
    points = latency_curve(
        topology, paths, mechanism, traffic, rates, config, seed,
        stop_after_saturation=True,
    )
    throughput = 0.0
    for p in points:
        if p.result.saturated:
            break
        throughput = p.rate
    return throughput, points
