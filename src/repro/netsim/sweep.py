"""Injection-rate sweeps: saturation throughput and latency-load curves.

Implements the paper's measurement protocol: simulate offered loads from
a ladder of rates, flag each run as saturated per the sample-latency
criterion, and report the last rate before saturation as the network's
throughput (Figures 7-10).  :func:`saturation_throughput` finds that rung
by an exponential search over the ladder (:class:`LadderSearch`, also
stepped by the batched grid driver) instead of climbing every rung; it
returns the ladder's answer whenever saturation is monotone in rate.
:func:`latency_curve` climbs the ladder rung by rung for the
latency-versus-load plots (Figures 11-13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.config import SimConfig
from repro.netsim.simulator import PatternTraffic, SimResult, Simulator, UniformTraffic
from repro.topology.jellyfish import Jellyfish
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["LadderSearch", "SweepPoint", "latency_curve", "saturation_throughput"]

DEFAULT_RATES: Tuple[float, ...] = tuple(np.round(np.arange(0.05, 1.0001, 0.05), 4))


@dataclass(frozen=True)
class SweepPoint:
    """One rung that ran: its offered rate and the run's result."""

    rate: float
    result: SimResult


def check_ladder(rates: Sequence[float], stops: bool = True) -> None:
    """Reject a rate ladder that cannot be climbed or searched.

    Every ladder must be non-empty and every rung a finite rate in
    (0, 1], checked up front because a search skips rungs.  A ladder
    whose answer is the last rung before the first saturated one
    (``stops``) must also be strictly increasing: that rung is the
    highest unsaturated rate only when the rungs climb.
    """
    if len(rates) == 0:
        raise ConfigurationError("rates must be non-empty")
    bad = [float(r) for r in rates if not (math.isfinite(r) and 0.0 < r <= 1.0)]
    if bad:
        raise ConfigurationError(
            f"every rate must be a finite number in (0, 1], got {bad[0]}"
        )
    if stops and not all(b > a for a, b in zip(rates, rates[1:])):
        raise ConfigurationError(
            "rates must be strictly increasing for a ladder that stops at "
            f"its first saturated rung, got {tuple(float(r) for r in rates)}"
        )


def rung_seeds(rng: np.random.Generator, n: int) -> List[int]:
    """The run seed of each of ``n`` rungs, drawn from ``rng`` in ladder order.

    Rung ``i`` runs with the ``i``-th draw, the seed a climb gives it,
    whatever order a search visits the rungs in.
    """
    return [int(rng.integers(2**63)) for _ in range(n)]


class LadderSearch:
    """Exponential search for the last unsaturated rung of ``n`` rungs.

    Probes rungs 0, 1, 3, 7, 15, ... (index ``2**m - 1``, the last probe
    clamped to the top rung) until one saturates or the top rung runs
    unsaturated, then bisects between the last unsaturated probe and the
    first saturated one.  ``lo`` is the highest rung probed unsaturated
    in that bracket (-1 for none) and ``hi`` the lowest probed saturated
    (``n`` for none); the search ends when they are adjacent.  No rung is
    probed twice, and a ladder of three rungs or fewer is probed in
    ladder order, exactly the rungs a climb that stops at its first
    saturated rung runs.

    When saturation is monotone in rate, ``lo`` is the climb's answer.
    When it is not, ``lo`` is an unsaturated rung whose next rung was
    probed and saturated, or -1 (rung 0 saturated, throughput 0.0), or
    the top rung (it ran unsaturated).
    """

    __slots__ = ("n", "lo", "hi")

    def __init__(self, n: int):
        self.n = n
        self.lo = -1
        self.hi = n

    def next_rung(self) -> Optional[int]:
        """The rung to probe next, or ``None`` once the answer is known."""
        if self.hi - self.lo == 1:
            return None
        if self.hi < self.n:
            return (self.lo + self.hi) // 2
        return min(2 * self.lo + 1, self.n - 1) if self.lo >= 0 else 0

    def record(self, rung: int, saturated: bool) -> None:
        """Narrow the bracket by the probe of ``rung``."""
        if saturated:
            self.hi = rung
        else:
            self.lo = rung

    def answer(self, rates: Sequence[float]) -> float:
        """The last rate before saturation (0.0 when rung 0 saturated)."""
        return float(rates[self.lo]) if self.lo >= 0 else 0.0

    @property
    def climbed(self) -> int:
        """Rungs a climb to the same answer runs: up to the first saturated."""
        return min(self.hi + 1, self.n)


def _run_one(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic,
    rate: float,
    config: SimConfig,
    seed: int,
) -> SimResult:
    sim = Simulator(
        topology,
        paths,
        mechanism,
        traffic,
        rate,
        config=config,
        seed=np.random.default_rng(seed),
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

    Climbs the ladder rung by rung, one run seed drawn per rung run.
    Stops after the first saturated point by default — beyond saturation
    the latency is unbounded and the paper's plots end there; such a
    ladder must be strictly increasing (:func:`check_ladder`).
    """
    check_ladder(rates, stops=stop_after_saturation)
    rng = ensure_rng(seed)
    points: List[SweepPoint] = []
    for rate in rates:
        result = _run_one(
            topology, paths, mechanism, traffic, rate, config,
            int(rng.integers(2**63)),
        )
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
    """The last offered load before saturation, plus the probed points.

    Mirrors the paper: "we record the last injection rate before the
    network reaches the saturation point as the network throughput".  A
    network saturated even at the lowest rate reports 0.0.  The rung is
    found by :class:`LadderSearch` over the strictly increasing ladder
    ``rates``, each rung run with the seed a climb would give it
    (:func:`rung_seeds`), so the answer equals the climb's whenever
    saturation is monotone in rate.  When it is not, the answer is an
    unsaturated rung whose next rung was probed and saturated, or 0.0
    (rung 0 saturated), or the top rung (it ran unsaturated).  The
    points come back in rate order.  A ``Generator`` passed as ``seed``
    ends in the state the climb leaves it in: one draw per rung up to and
    including the first saturated one (:attr:`LadderSearch.climbed`).
    """
    check_ladder(rates)
    rng = ensure_rng(seed)
    start = rng.bit_generator.state
    seeds = rung_seeds(rng, len(rates))
    search = LadderSearch(len(rates))
    points: Dict[int, SweepPoint] = {}
    rung = search.next_rung()
    while rung is not None:
        result = _run_one(
            topology, paths, mechanism, traffic, rates[rung], config, seeds[rung]
        )
        points[rung] = SweepPoint(rate=float(rates[rung]), result=result)
        search.record(rung, result.saturated)
        rung = search.next_rung()
    if rng is seed:  # the caller's generator: leave it where a climb would
        rng.bit_generator.state = start
        rung_seeds(rng, search.climbed)
    return search.answer(rates), [points[i] for i in sorted(points)]
