"""Figures 7-10: flit-level saturation throughput.

Figures 7/8 use random permutations, 9/10 random shifts; in each, every
(path-selection scheme x routing mechanism) cell reports the average
saturation throughput over several pattern instances.
"""

from __future__ import annotations

import numpy as np

from repro.core import PathCache
from repro.experiments.base import ExperimentResult
from repro.experiments.presets import netsim_preset
# Kept bound here, though the figures run through ``run_cells``: the e2e
# benchmark's tracer (``benchmarks/e2e/trace.py``) wraps
# ``saturation_throughput`` by this module's name.
from repro.netsim import saturation_throughput  # noqa: F401
from repro.netsim.parallel import run_cells
from repro.obs import log, metrics, topology_hash
from repro.topology import Jellyfish
from repro.traffic import random_permutation, random_shift
from repro.utils.rng import SeedLike, spawn_rngs


def run_fig(
    figure: int, scale: str = "small", seed: SeedLike = 0, processes: int = 1
) -> ExperimentResult:
    """One saturation-throughput figure (7-10).

    Every run uses the preset's fixed cycle budget, and each cell's
    throughput is the last rate of the preset's ladder before saturation,
    found by a search that probes a few rungs.  The cells run through
    :func:`~repro.netsim.parallel.run_cells` on ``processes`` workers
    (the table is the same for any count).  The preset's lane width
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
    schemes, mechanisms = preset["schemes"], preset["mechanisms"]
    caches = {
        scheme: PathCache(topo, scheme, k=preset["k"], seed=int(topo_rng.integers(2**31)))
        for scheme in schemes
    }
    # One chunk per (scheme, mechanism) cell, holding its patterns, so no
    # pack mixes cells and a chunk's probe snapshots live only as long as
    # its cell's search.  Deterministic per-cell streams: str hashes are
    # salted per process, so derive from indices instead.
    chunks = [
        [
            (scheme, mech, i, np.random.SeedSequence(entropy=figure, spawn_key=(si, mi, i)))
            for i in range(len(patterns))
        ]
        for si, scheme in enumerate(schemes)
        for mi, mech in enumerate(mechanisms)
    ]
    with metrics.span("stage.sweep"):
        grid = run_cells(
            topo, caches, patterns, chunks, preset["rates"], preset["config"],
            processes,
        )

    for (scheme, mech), throughput in grid.items():
        log.info(
            "sweep_cell_done", figure=figure, scheme=scheme,
            mechanism=mech, throughput=throughput,
        )
    data = {scheme: {mech: grid[scheme, mech] for mech in mechanisms} for scheme in schemes}
    rows = [[scheme] + [round(v, 3) for v in data[scheme].values()] for scheme in schemes]

    kind = "random shift" if shift_traffic else "random permutations"
    return ExperimentResult(
        experiment=f"fig{figure}",
        title=f"Average saturation throughput of {kind} on {spec.label}",
        headers=["scheme"] + list(mechanisms),
        rows=rows,
        scale=scale,
        notes=f"k={preset['k']}; {preset['n_patterns']} pattern(s); "
        f"rate grid step {preset['rates'][0]}",
        data=data,
    )


def run_fig7(scale: str = "small", seed: SeedLike = 0, processes: int = 1) -> ExperimentResult:
    """Figure 7: permutations on the small topology."""
    return run_fig(7, scale, seed, processes)


def run_fig8(scale: str = "small", seed: SeedLike = 0, processes: int = 1) -> ExperimentResult:
    """Figure 8: permutations on the medium topology."""
    return run_fig(8, scale, seed, processes)


def run_fig9(scale: str = "small", seed: SeedLike = 0, processes: int = 1) -> ExperimentResult:
    """Figure 9: shifts on the small topology."""
    return run_fig(9, scale, seed, processes)


def run_fig10(scale: str = "small", seed: SeedLike = 0, processes: int = 1) -> ExperimentResult:
    """Figure 10: shifts on the medium topology."""
    return run_fig(10, scale, seed, processes)
