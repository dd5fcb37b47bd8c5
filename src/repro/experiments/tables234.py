"""Tables II, III, IV: path-quality metrics of the four selection schemes.

One pass computes all three tables per topology x scheme: average path
length (II), percentage of switch pairs whose k paths share no link (III),
and the worst-case number of one pair's paths on a single link (IV).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core import PathCache, path_quality_report
from repro.experiments.base import ExperimentResult
from repro.experiments.presets import pathprops_preset
from repro.topology import Jellyfish
from repro.utils.rng import SeedLike, spawn_rngs

SCHEMES = ("ksp", "rksp", "edksp", "redksp")

#: Paper values for the paper-scale topologies, per (table, topology label).
PAPER = {
    "table2": {
        "RRG(36,24,16)": (2.06, 2.06, 2.06, 2.06),
        "RRG(720,24,19)": (3.02, 3.02, 3.16, 3.16),
        "RRG(2880,48,38)": (2.94, 2.94, 2.94, 2.94),
    },
    "table3": {
        "RRG(36,24,16)": (0.56, 0.59, 1.00, 1.00),
        "RRG(720,24,19)": (0.02, 0.03, 1.00, 1.00),
        "RRG(2880,48,38)": (0.09, 0.22, 1.00, 1.00),
    },
    "table4": {
        "RRG(36,24,16)": (6, 3, 1, 1),
        "RRG(720,24,19)": (7, 7, 1, 1),
        "RRG(2880,48,38)": (7, 6, 1, 1),
    },
}


def _sample_pairs(n: int, sample: int | None, rng) -> List[Tuple[int, int]]:
    if sample is None:
        return [(s, d) for s in range(n) for d in range(n) if s != d]
    pairs = set()
    while len(pairs) < sample:
        s, d = rng.integers(n, size=2)
        if s != d:
            pairs.add((int(s), int(d)))
    return sorted(pairs)


def compute_reports(
    scale: str,
    seed: SeedLike,
    *,
    processes: int = 1,
    path_store=None,
    pairs_on_demand: int | None = None,
) -> Dict[str, Dict[str, dict]]:
    """{topology label: {scheme: quality report}} for the preset topologies.

    ``processes`` shards the path precompute across workers and
    ``path_store`` (an :class:`~repro.core.store.ArenaStore`) persists
    the warmed tables between runs — both leave the reported numbers
    byte-identical to a serial, storeless run (the PathCache determinism
    contract).
    ``pairs_on_demand`` caps the number of pairs computed per topology:
    only that many (seeded-random) pairs are precomputed and reported,
    which is what makes very large topologies feasible — Yen's runtime
    scales with the pair budget, not with n^2.  Unlike the two knobs
    above it changes the sampled statistics, so it is recorded in the
    result document.
    """
    preset = pathprops_preset(scale)
    out: Dict[str, Dict[str, dict]] = {}
    rngs = spawn_rngs(seed, len(preset["topologies"]))
    for spec, sample, rng in zip(
        preset["topologies"], preset["pair_sample"], rngs
    ):
        if pairs_on_demand is not None:
            budget = max(1, int(pairs_on_demand))
            if budget < spec.n * (spec.n - 1):
                sample = budget if sample is None else min(sample, budget)
        topo = Jellyfish(spec.n, spec.x, spec.y, seed=rng)
        pairs = _sample_pairs(spec.n, sample, rng)
        per_scheme = {}
        for scheme in SCHEMES:
            cache = PathCache(topo, scheme, k=preset["k"], seed=int(rng.integers(2**31)))
            cache.warm(pairs, processes=processes, store=path_store)
            per_scheme[scheme] = path_quality_report(
                cache.get(s, d) for s, d in pairs
            )
        out[spec.label] = per_scheme
    return out


_REPORT_CACHE: dict = {}


def _reports(
    scale: str, seed, processes: int = 1, path_store=None,
    pairs_on_demand=None,
) -> Dict[str, Dict[str, dict]]:
    # processes/path_store cannot change the numbers, so they are not part
    # of the memo key — only the inputs the reports are a function of.
    # pairs_on_demand changes which pairs are sampled, so it is.
    key = (
        scale,
        int(np.random.SeedSequence(seed).entropy or 0) if seed is None else seed,
        pairs_on_demand,
    )
    if key not in _REPORT_CACHE:
        _REPORT_CACHE[key] = compute_reports(
            scale, seed, processes=processes, path_store=path_store,
            pairs_on_demand=pairs_on_demand,
        )
    return _REPORT_CACHE[key]


def _result(
    table: str, metric: str, title: str, scale: str, seed, fmt,
    processes: int = 1, path_store=None, pairs_on_demand=None,
) -> ExperimentResult:
    reports = _reports(scale, seed, processes, path_store, pairs_on_demand)
    rows = []
    for label, per_scheme in reports.items():
        row = [label] + [fmt(per_scheme[s][metric]) for s in SCHEMES]
        paper = PAPER[table].get(label)
        row.append("/".join(map(str, paper)) if paper else "-")
        rows.append(row)
    return ExperimentResult(
        experiment=table,
        title=title,
        headers=["Topology", "KSP(8)", "rKSP(8)", "EDKSP(8)", "rEDKSP(8)", "paper"],
        rows=rows,
        scale=scale,
        notes=(
            "pair-sampled on larger topologies (see presets)"
            if pairs_on_demand is None
            else f"on-demand pair budget: {int(pairs_on_demand)} pairs/topology"
        ),
        data=reports,
    )


def run_table2(
    scale: str = "small", seed: SeedLike = 0,
    processes: int = 1, path_store=None, pairs_on_demand=None,
) -> ExperimentResult:
    """Table II: average path length (k = 8)."""
    return _result(
        "table2", "average_path_length", "Average path length (k=8)",
        scale, seed, lambda v: round(v, 3), processes, path_store,
        pairs_on_demand,
    )


def run_table3(
    scale: str = "small", seed: SeedLike = 0,
    processes: int = 1, path_store=None, pairs_on_demand=None,
) -> ExperimentResult:
    """Table III: % of switch pairs whose k paths share no link."""
    return _result(
        "table3", "fraction_disjoint_pairs",
        "Percentage of switch pairs whose k paths do not share any link (k=8)",
        scale, seed, lambda v: f"{100 * v:.0f}%", processes, path_store,
        pairs_on_demand,
    )


def run_table4(
    scale: str = "small", seed: SeedLike = 0,
    processes: int = 1, path_store=None, pairs_on_demand=None,
) -> ExperimentResult:
    """Table IV: max times one link is shared by a single pair's k paths."""
    return _result(
        "table4", "max_link_sharing",
        "Maximum number of times one link is shared by the k paths of one pair (k=8)",
        scale, seed, lambda v: int(v), processes, path_store,
        pairs_on_demand,
    )
