"""Scale presets for the experiment drivers.

Three scales:

- ``"paper"`` — the original parameters (RRG(36,24,16), RRG(720,24,19),
  RRG(2880,48,38); 10 topology samples x 50 pattern instances for the
  model; full Booksim cycle counts).  Hours of CPU for the cycle-level
  sweeps; provided for completeness.
- ``"medium"`` — the paper's *small* topology exactly, the larger two
  replaced by reduced instances with the same hosts-per-switch : uplinks
  ratio (which is what determines the load regime), and fewer repetitions.
- ``"small"`` — toy instances for CI and pytest-benchmark; every
  experiment finishes in seconds while preserving the relations under
  test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.netsim.config import SimConfig

__all__ = [
    "TopoSpec",
    "SCALES",
    "topo_trio",
    "pathprops_preset",
    "model_preset",
    "netsim_preset",
    "latency_preset",
    "stencil_preset",
]

SCALES = ("small", "medium", "paper")


@dataclass(frozen=True)
class TopoSpec:
    """Parameters of one Jellyfish instance used by an experiment."""

    n: int
    x: int
    y: int

    @property
    def label(self) -> str:
        return f"RRG({self.n},{self.x},{self.y})"

    @property
    def n_hosts(self) -> int:
        return self.n * (self.x - self.y)


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ConfigurationError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale


#: The three evaluation topologies per scale (Table I's trio).
_TRIOS: Dict[str, Tuple[TopoSpec, TopoSpec, TopoSpec]] = {
    "paper": (TopoSpec(36, 24, 16), TopoSpec(720, 24, 19), TopoSpec(2880, 48, 38)),
    # Same oversubscription ratios (8/16, 5/19, 10/38) at reduced switch
    # counts.
    "medium": (TopoSpec(36, 24, 16), TopoSpec(72, 24, 19), TopoSpec(144, 48, 38)),
    # Under-subscribed like the paper's (hosts-per-switch : uplinks ~ 1:2).
    "small": (TopoSpec(12, 10, 7), TopoSpec(16, 12, 9), TopoSpec(20, 14, 10)),
}

#: Mildly stressed instances for the saturation/latency experiments at
#: small scale: per-node demand x average path length ~ uplink capacity,
#: the regime where the paper's small topology operates and where the
#: schemes actually separate.
_SMALL_STRESSED = (TopoSpec(12, 10, 6), TopoSpec(16, 12, 8))


def topo_trio(scale: str) -> Tuple[TopoSpec, TopoSpec, TopoSpec]:
    """The (small, medium, large) topology specs at this scale."""
    return _TRIOS[_check_scale(scale)]


def pathprops_preset(scale: str) -> dict:
    """Tables II-IV: topologies, k, and the per-topology pair sample.

    ``pair_sample = None`` means all ordered switch pairs (the paper's
    exhaustive computation); larger topologies sample pairs uniformly.
    """
    _check_scale(scale)
    trio = topo_trio(scale)
    if scale == "small":
        return {"topologies": trio, "k": 8, "pair_sample": (None, None, None)}
    if scale == "medium":
        return {"topologies": trio, "k": 8, "pair_sample": (None, 600, 600)}
    return {"topologies": trio, "k": 8, "pair_sample": (None, 1500, 1500)}


def model_preset(scale: str, figure: int) -> dict:
    """Figures 4-6: topology, repetition counts, Random(X) fan-out, k."""
    _check_scale(scale)
    trio = topo_trio(scale)
    topo = trio[figure - 4]
    if scale == "small":
        reps = {"topo_samples": 2, "pattern_instances": 3, "k": 4}
        x = min(10, topo.n_hosts - 1)
        a2a = True
    elif scale == "medium":
        reps = {"topo_samples": 3, "pattern_instances": 10}
        x = min(50, topo.n_hosts - 1)
        a2a = figure == 4  # all-pairs Yen beyond the small topology is slow
    else:
        reps = {"topo_samples": 10, "pattern_instances": 50}
        x = 50
        a2a = True
    return {"topo": topo, "k": 8, "random_x": x, "all_to_all": a2a, **reps}


def netsim_preset(scale: str, figure: int) -> dict:
    """Figures 7-10: topology, pattern count, rate grid, sim config, k.

    The sim config carries the lane width of each cell's saturation
    searches (``SimConfig.batch_lanes``).
    """
    _check_scale(scale)
    trio = topo_trio(scale)
    topo = trio[0] if figure in (7, 9) else trio[1]
    if scale == "small":
        return {
            "topo": _SMALL_STRESSED[0] if figure in (7, 9) else _SMALL_STRESSED[1],
            "k": 4,
            "n_patterns": 1,
            "rates": tuple(round(0.1 * i, 2) for i in range(1, 11)),
            "config": SimConfig(warmup_cycles=200, sample_cycles=200, n_samples=5),
            "schemes": ("ksp", "redksp"),
            "mechanisms": ("random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive"),
        }
    # A cell's patterns search as lanes of one batch, 8 at a time; the
    # small presets have one pattern per cell, so nothing to pack.
    if scale == "medium":
        return {
            "topo": topo,
            "k": 8,
            "n_patterns": 3,
            "rates": tuple(round(0.05 * i, 2) for i in range(1, 21)),
            "config": SimConfig(batch_lanes=8),
            "schemes": ("ksp", "rksp", "edksp", "redksp"),
            "mechanisms": ("random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive"),
        }
    return {
        "topo": topo,
        "k": 8,
        "n_patterns": 10,
        "rates": tuple(round(0.05 * i, 2) for i in range(1, 21)),
        "config": SimConfig(batch_lanes=8),
        "schemes": ("ksp", "rksp", "edksp", "redksp"),
        "mechanisms": ("random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive"),
    }


def latency_preset(scale: str, figure: int) -> dict:
    """Figures 11-13: latency-vs-load curves on the medium topology."""
    _check_scale(scale)
    trio = topo_trio(scale)
    traffic = {11: "uniform", 12: "permutation", 13: "shift"}[figure]
    if scale == "small":
        return {
            "topo": _SMALL_STRESSED[0],
            "k": 4,
            "traffic": traffic,
            "rates": tuple(round(0.1 * i, 2) for i in range(1, 11)),
            "config": SimConfig(warmup_cycles=200, sample_cycles=200, n_samples=5),
            "schemes": ("ksp", "redksp"),
            "mechanism": "ksp_adaptive",
        }
    topo = trio[1]
    return {
        "topo": topo,
        "k": 8,
        "traffic": traffic,
        "rates": tuple(round(0.05 * i, 2) for i in range(1, 21)),
        "config": SimConfig(),
        "schemes": ("ksp", "rksp", "edksp", "redksp"),
        "mechanism": "ksp_adaptive",
    }


def stencil_preset(scale: str) -> dict:
    """Tables V-VI: topology, message volume, bandwidth, k, chunks."""
    _check_scale(scale)
    if scale == "small":
        return {
            "topo": TopoSpec(9, 10, 6),  # 36 hosts -> 6x6 / 4x3x3 grids
            "k": 4,
            "total_bytes": 15e6,
            "link_bandwidth": 20e9,
            "chunks": 4,
            "schemes": ("redksp", "ksp", "rksp"),
        }
    if scale == "medium":
        return {
            "topo": TopoSpec(72, 24, 19),  # 360 hosts
            "k": 8,
            "total_bytes": 15e6,
            "link_bandwidth": 20e9,
            "chunks": 4,
            "schemes": ("redksp", "ksp", "rksp"),
        }
    return {
        "topo": TopoSpec(720, 24, 19),  # the paper's 3600 hosts
        "k": 8,
        "total_bytes": 15e6,
        "link_bandwidth": 20e9,
        "chunks": 4,
        "schemes": ("redksp", "ksp", "rksp"),
    }
