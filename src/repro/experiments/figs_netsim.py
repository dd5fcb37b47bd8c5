"""Figures 7-10: flit-level saturation throughput.

Figures 7/8 use random permutations, 9/10 random shifts; in each, every
(path-selection scheme x routing mechanism) cell reports the average
saturation throughput over several pattern instances.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import PathCache
from repro.experiments.base import ExperimentResult
from repro.experiments.presets import netsim_preset
from repro.netsim import PatternTraffic
# Kept bound here, though the cells call ``search_saturation``: the e2e
# benchmark's tracer (``benchmarks/e2e/trace.py``) wraps
# ``saturation_throughput`` by this module's name.
from repro.netsim import saturation_throughput  # noqa: F401
from repro.netsim.sweep import search_saturation
from repro.obs import layers, log, metrics, topology_hash
from repro.topology import Jellyfish
from repro.traffic import random_permutation, random_shift
from repro.utils.rng import SeedLike, spawn_rngs


def _cell_throughputs(
    topo: Jellyfish,
    cache: PathCache,
    mechanism: str,
    patterns,
    rates,
    config,
    cell_seeds,
) -> List[float]:
    """Per-pattern saturation throughput of one (scheme, mechanism) cell.

    The cell's patterns are the jobs of one
    :func:`~repro.netsim.sweep.search_saturation` call: with
    ``config.batch_lanes > 1`` they search the ladder in lock-step as
    lanes of the batched engine, whose lanes may probe different rates.
    Each pattern's telemetry is merged home in pattern-major, probe-minor
    order, so throughputs and run artifacts are those of searching each
    pattern alone whatever the lane width.
    """
    jobs = [
        (cache, mechanism, PatternTraffic(pat), cell_seed)
        for pat, cell_seed in zip(patterns, cell_seeds)
    ]
    results = search_saturation(
        topo, jobs, rates, config, layers.active_configs()
    )
    for _, _, snaps in results:
        layers.merge(snaps)
    return [th for th, _, _ in results]


def run_fig(figure: int, scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """One saturation-throughput figure (7-10).

    Every run uses the preset's fixed cycle budget, and each cell's
    throughput is the last rate of the preset's ladder before saturation,
    found by a search that probes a few rungs.  The preset's lane width
    (``config.batch_lanes``) packs each cell's patterns as lock-step
    lanes of the batched engine; a probe packed alone runs on the fast
    engine (results byte-identical either way).
    """
    preset = netsim_preset(scale, figure)
    spec = preset["topo"]
    shift_traffic = figure in (9, 10)
    topo_rng, *pat_rngs = spawn_rngs(seed, preset["n_patterns"] + 1)
    with metrics.span("stage.topology"):
        topo = Jellyfish(spec.n, spec.x, spec.y, seed=topo_rng)
    n = topo.n_hosts
    if metrics.enabled():
        metrics.annotate("topology", spec.label)
        metrics.annotate("topology_hash", topology_hash(topo))
        metrics.annotate("k", preset["k"])
        metrics.annotate("schemes", list(preset["schemes"]))
        metrics.annotate("mechanisms", list(preset["mechanisms"]))

    patterns = [
        random_shift(n, seed=rng) if shift_traffic else random_permutation(n, seed=rng)
        for rng in pat_rngs
    ]

    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for si, scheme in enumerate(preset["schemes"]):
        cache = PathCache(topo, scheme, k=preset["k"], seed=int(topo_rng.integers(2**31)))
        per_mech = {}
        with metrics.span(f"stage.sweep.{scheme}"):
            for mi, mech in enumerate(preset["mechanisms"]):
                # Deterministic per-cell streams: str hashes are salted
                # per process, so derive from indices instead.
                cell_seeds = [
                    np.random.SeedSequence(
                        entropy=figure, spawn_key=(si, mi, i)
                    )
                    for i in range(len(patterns))
                ]
                values = _cell_throughputs(
                    topo, cache, mech, patterns,
                    preset["rates"], preset["config"], cell_seeds,
                )
                per_mech[mech] = float(np.mean(values))
                log.info(
                    "sweep_cell_done", figure=figure, scheme=scheme,
                    mechanism=mech, throughput=per_mech[mech],
                )
        data[scheme] = per_mech
        rows.append([scheme] + [round(per_mech[m], 3) for m in preset["mechanisms"]])

    kind = "random shift" if shift_traffic else "random permutations"
    return ExperimentResult(
        experiment=f"fig{figure}",
        title=f"Average saturation throughput of {kind} on {spec.label}",
        headers=["scheme"] + list(preset["mechanisms"]),
        rows=rows,
        scale=scale,
        notes=f"k={preset['k']}; {preset['n_patterns']} pattern(s); "
        f"rate grid step {preset['rates'][0]}",
        data=data,
    )


def run_fig7(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 7: permutations on the small topology."""
    return run_fig(7, scale, seed)


def run_fig8(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 8: permutations on the medium topology."""
    return run_fig(8, scale, seed)


def run_fig9(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 9: shifts on the small topology."""
    return run_fig(9, scale, seed)


def run_fig10(scale: str = "small", seed: SeedLike = 0) -> ExperimentResult:
    """Figure 10: shifts on the medium topology."""
    return run_fig(10, scale, seed)
