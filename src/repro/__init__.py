"""repro — reproduction of "Multi-Path Routing in the Jellyfish Network".

(ALzaid, Bhowmik, Yuan — IPPS 2021.)

The library provides, all implemented from scratch:

- :mod:`repro.topology` — Jellyfish ``RRG(N, x, y)`` construction + metrics;
- :mod:`repro.core` — path selection: KSP, rKSP, EDKSP, rEDKSP, LLSKR, and
  the path-quality metrics of Tables II-IV;
- :mod:`repro.traffic` — synthetic patterns (permutation, shift, Random(X),
  all-to-all, uniform) and stencil application workloads with rank mappings;
- :mod:`repro.model` — the MPTCP-style throughput model (Eq. 1);
- :mod:`repro.netsim` — a flit-level, cycle-driven network simulator with
  the six routing mechanisms (SP / random / round-robin / vanilla-UGAL /
  KSP-UGAL / KSP-adaptive);
- :mod:`repro.appsim` — a flow-level application simulator for the stencil
  communication-time studies;
- :mod:`repro.experiments` — one driver per paper table and figure.

Quickstart::

    from repro import Jellyfish, PathCache
    topo = Jellyfish(36, 24, 16, seed=1)
    paths = PathCache(topo, scheme="redksp", k=8, seed=1)
    print(paths.get(0, 5))
"""

from repro.errors import (
    ReproError,
    TopologyError,
    ConstructionError,
    PathError,
    NoPathError,
    InsufficientPathsError,
    TrafficError,
    MappingError,
    ModelError,
    SimulationError,
    ConfigurationError,
)
from repro.topology import Jellyfish, random_regular_graph
from repro.core import (
    Path,
    PathSet,
    PathArena,
    PathCache,
    ArenaStore,
    compute_paths,
    make_selector,
    k_shortest_paths,
    edge_disjoint_paths,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "TopologyError",
    "ConstructionError",
    "PathError",
    "NoPathError",
    "InsufficientPathsError",
    "TrafficError",
    "MappingError",
    "ModelError",
    "SimulationError",
    "ConfigurationError",
    # topology
    "Jellyfish",
    "random_regular_graph",
    # core
    "Path",
    "PathSet",
    "PathArena",
    "PathCache",
    "ArenaStore",
    "compute_paths",
    "make_selector",
    "k_shortest_paths",
    "edge_disjoint_paths",
]
