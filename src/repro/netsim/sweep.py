"""Injection-rate sweeps: saturation throughput and latency-load curves.

Implements the paper's measurement protocol: simulate offered loads from
a ladder of rates, flag each run as saturated per the sample-latency
criterion, and report the last rate before saturation as the network's
throughput (Figures 7-10).  :func:`search_saturation` is the one driver
of that search: each job finds its rung by an exponential search over the
ladder (:class:`LadderSearch`) instead of climbing every rung, and jobs
that can share a batch probe as lanes of the batched engine.
:func:`saturation_throughput` is its one-job call, and the saturation
grid and the figure cells call it with many jobs.  It returns the
ladder's answer whenever saturation is monotone in rate.
:func:`latency_curve` climbs the ladder rung by rung for the
latency-versus-load plots (Figures 11-13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.batchcore import (
    BATCHABLE_MECHANISMS,
    BatchLane,
    BatchSimulator,
    lane_vc_count,
)
from repro.netsim.config import SimConfig
from repro.netsim.simulator import PatternTraffic, SimResult, Simulator, UniformTraffic
from repro.obs import layers
from repro.obs.monitor import Heartbeater
from repro.topology.jellyfish import Jellyfish
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "LadderSearch",
    "SweepPoint",
    "latency_curve",
    "saturation_throughput",
    "search_saturation",
]

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
    network saturated even at the lowest rate reports 0.0.  This is the
    one-job call of :func:`search_saturation`, which documents the search
    and the answer it gives when saturation is not monotone in rate; the
    probes' telemetry is merged into the active recorders in probe order.
    """
    job = (paths, mechanism, traffic, seed)
    cfgs = layers.active_configs()
    [(throughput, points, snaps)] = search_saturation(
        topology, [job], rates, config, cfgs
    )
    layers.merge(snaps)
    return throughput, points


#: One saturation search's answer: the throughput, the probed points in
#: rate order, and ``{layer: snapshot}`` of its probes (``None`` when no
#: capture layer is on).
SearchResult = Tuple[float, List[SweepPoint], Optional[Dict[str, dict]]]


def search_saturation(
    topology: Jellyfish,
    jobs: Sequence[Tuple[PathCache, str, object, SeedLike]],
    rates: Sequence[float],
    config: SimConfig,
    cfgs: Mapping[str, dict],
    hb: Optional[Heartbeater] = None,
) -> List[SearchResult]:
    """Saturation searches of many jobs, probe by probe, packed into lanes.

    ``jobs`` holds one ``(paths, mechanism, traffic, seed)`` per search.
    Each job searches the strictly increasing ladder ``rates`` with its
    own :class:`LadderSearch`, rung ``i`` run with the ``i``-th seed drawn
    from ``seed`` (:func:`rung_seeds`, the seed a climb gives it), so the
    answer equals the climb's whenever saturation is monotone in rate.
    When it is not, the answer is an unsaturated rung whose next rung was
    probed and saturated, or 0.0 (rung 0 saturated), or the top rung (it
    ran unsaturated).  A ``Generator`` passed as a seed ends in the state
    the climb leaves it in: one draw per rung up to and including the
    first saturated one (:attr:`LadderSearch.climbed`).

    All jobs advance one probe per step.  A job that can share a batch
    (a mechanism in ``BATCHABLE_MECHANISMS``, the flight recorder off and
    ``config.batch_lanes > 1``) is grouped by (path cache, VC count),
    since the lanes of one batch share one cache and one buffer layout;
    any other job is a group of its own.  Each step packs a group's live
    jobs into packs of at most ``config.batch_lanes`` lanes.  A pack of
    several lanes is one lock-step
    :class:`~repro.netsim.batchcore.BatchSimulator` run whose lanes may
    probe different rates; a pack of one lane runs on the per-run engine,
    byte-identical to a one-lane batch (faster on small topologies,
    slower at the paper's sizes), with its time-series windows fed to
    ``hb``.

    Every probe publishes under fresh recorders for the capture layers in
    ``cfgs``, and each job's probes are merged in probe order, the order
    a lone search runs them in, so a job's throughput, points and
    snapshots do not depend on the packing.  Returns one
    ``(throughput, points, snapshots or None)`` per job, in job order,
    with the points in rate order.
    """
    check_ladder(rates)
    rngs = [ensure_rng(job[3]) for job in jobs]
    starts = [rng.bit_generator.state for rng in rngs]
    seeds = [rung_seeds(rng, len(rates)) for rng in rngs]
    searches = [LadderSearch(len(rates)) for _ in jobs]
    shared = config.batch_lanes > 1 and "trace" not in cfgs
    group_of = [
        (id(paths), lane_vc_count(topology, paths, mech, config))
        if shared and mech in BATCHABLE_MECHANISMS else i
        for i, (paths, mech, _traffic, _seed) in enumerate(jobs)
    ]
    points: List[Dict[int, SweepPoint]] = [{} for _ in jobs]
    probes: List[List[dict]] = [[] for _ in jobs]

    while True:
        step = [search.next_rung() for search in searches]
        groups: Dict[object, List[int]] = {}
        for i, rung in enumerate(step):
            if rung is not None:
                groups.setdefault(group_of[i], []).append(i)
        if not groups:
            break
        for members in groups.values():
            for s in range(0, len(members), config.batch_lanes):
                pack = members[s : s + config.batch_lanes]
                if hb is not None:
                    probed = sorted({float(rates[step[i]]) for i in pack})
                    hb.task(
                        f"{jobs[pack[0]][0].selector.name} rates={probed} "
                        f"x{len(pack)} lanes"
                    )
                results, snaps = _run_pack(
                    topology, [jobs[i] for i in pack],
                    [(rates[step[i]], seeds[i][step[i]]) for i in pack],
                    config, cfgs, hb,
                )
                for i, result, snap in zip(pack, results, snaps):
                    rung = step[i]
                    points[i][rung] = SweepPoint(float(rates[rung]), result)
                    if snap:
                        probes[i].append(snap)
                    searches[i].record(rung, result.saturated)
                if hb is not None:
                    hb.done()

    out: List[SearchResult] = []
    for i, search in enumerate(searches):
        if rngs[i] is jobs[i][3]:  # the caller's generator: as a climb leaves it
            rngs[i].bit_generator.state = starts[i]
            rung_seeds(rngs[i], search.climbed)
        merged = None
        if probes[i]:
            with layers.capture(cfgs) as recs:
                for snap in probes[i]:  # probe order = a lone search's order
                    layers.merge(snap)
            merged = _snapshots(recs)
        ordered = [points[i][rung] for rung in sorted(points[i])]
        out.append((search.answer(rates), ordered, merged))
    return out


def _run_pack(topology, pack, runs, config, cfgs, hb):
    """Probe one pack: ``pack`` holds its jobs and ``runs`` each one's
    ``(rate, run seed)``; returns their results and snapshots."""
    if len(pack) == 1:
        (paths, mechanism, traffic, _), [(rate, seed)] = pack[0], runs
        with layers.capture(cfgs) as recs:
            if hb is not None and "timeseries" in recs:
                recs["timeseries"].on_window = hb.window
            result = _run_one(
                topology, paths, mechanism, traffic, rate, config, seed
            )
        return [result], [_snapshots(recs)]
    lanes = [
        BatchLane(mechanism, traffic, float(rate), seed=np.random.default_rng(seed))
        for (_, mechanism, traffic, _), (rate, seed) in zip(pack, runs)
    ]
    batch = BatchSimulator(topology, pack[0][0], lanes, config)
    results = batch.run(publish=False, observe="metrics" in cfgs)
    snaps = []
    for j in range(len(pack)):
        with layers.capture(cfgs) as recs:
            if recs:
                batch.publish_lane(j)
        snaps.append(_snapshots(recs))
    return results, snaps


def _snapshots(recs: Mapping[str, object]) -> Dict[str, dict]:
    """``{layer: snapshot}`` of a :func:`repro.obs.layers.capture` block."""
    return {name: rec.snapshot() for name, rec in recs.items()}
