"""Figures 11-13: average packet latency versus offered load.

One traffic condition per figure (uniform-random, a random permutation, a
random shift), KSP-adaptive routing, with one latency-versus-load series
per path-selection scheme.  A series ends at its saturation point, as in
the paper's plots.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import PathCache
from repro.experiments.base import ExperimentResult
from repro.experiments.presets import latency_preset
from repro.netsim import PatternTraffic, UniformTraffic, latency_curve
from repro.topology import Jellyfish
from repro.traffic import random_permutation, random_shift
from repro.utils.rng import SeedLike, spawn_rngs


def run_fig(
    figure: int, scale: str = "small", seed: SeedLike = 0
) -> ExperimentResult:
    """One latency-load figure (11, 12 or 13); every point's run uses the
    preset's fixed cycle budget."""
    preset = latency_preset(scale, figure)
    spec = preset["topo"]
    topo_rng, pat_rng, sim_rng = spawn_rngs(seed, 3)
    topo = Jellyfish(spec.n, spec.x, spec.y, seed=topo_rng)
    n = topo.n_hosts

    if preset["traffic"] == "uniform":
        traffic = UniformTraffic(n)
    elif preset["traffic"] == "permutation":
        traffic = PatternTraffic(random_permutation(n, seed=pat_rng))
    else:
        traffic = PatternTraffic(random_shift(n, seed=pat_rng))

    series: Dict[str, List[Tuple[float, float]]] = {}
    for scheme in preset["schemes"]:
        cache = PathCache(topo, scheme, k=preset["k"], seed=int(topo_rng.integers(2**31)))
        points = latency_curve(
            topo, cache, preset["mechanism"], traffic,
            rates=preset["rates"], config=preset["config"], seed=sim_rng,
        )
        series[scheme] = [
            (p.rate, p.result.mean_latency)
            for p in points
            if not p.result.saturated
        ]

    # Render as a table: one row per offered load, one column per scheme
    # (blank once the scheme has saturated).
    rates = sorted({r for pts in series.values() for r, _ in pts})
    lookup = {s: dict(pts) for s, pts in series.items()}
    rows = []
    for rate in rates:
        row = [rate]
        for scheme in preset["schemes"]:
            v = lookup[scheme].get(rate)
            row.append(round(v, 1) if v is not None else "-")
        rows.append(row)

    return ExperimentResult(
        experiment=f"fig{figure}",
        title=(
            f"Average packet latency vs offered load, {preset['traffic']} traffic "
            f"on {spec.label} ({preset['mechanism']})"
        ),
        headers=["offered load"] + [f"{s} latency" for s in preset["schemes"]],
        rows=rows,
        scale=scale,
        notes="series end at their saturation point",
        data=series,
    )


def run_fig11(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 11: uniform-random traffic."""
    return run_fig(11, scale, seed)


def run_fig12(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 12: a random permutation."""
    return run_fig(12, scale, seed)


def run_fig13(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 13: a random shift."""
    return run_fig(13, scale, seed)
