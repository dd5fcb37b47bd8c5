"""Path selection — the paper's primary contribution.

This package implements the four path-selection schemes the paper compares
(KSP, rKSP, EDKSP, rEDKSP), the LLSKR baseline from Yuan et al. SC'13, the
underlying shortest-path and Yen's k-shortest-path machinery, and the
path-quality metrics behind Tables II-IV.
"""

from repro.core.path import Path, PathSet
from repro.core.kernels import GraphKernels, kernels_for
from repro.core.dijkstra import shortest_path, bfs_levels
from repro.core.yen import k_shortest_paths
from repro.core.remove_find import edge_disjoint_paths
from repro.core.selectors import (
    SCHEMES,
    compute_paths,
    KSPSelector,
    RandomizedKSPSelector,
    EdgeDisjointKSPSelector,
    RandomizedEdgeDisjointKSPSelector,
    LLSKRSelector,
    make_selector,
)
from repro.core.arena import PathArena
from repro.core.cache import PathCache
from repro.core.store import ArenaStore, DEFAULT_STORE_DIR
from repro.core.ecmp import ecmp_paths
from repro.core.failures import (
    failure_resilience,
    pair_survives,
    sample_link_failures,
    surviving_paths,
)
from repro.core.properties import (
    average_path_length,
    fraction_disjoint_pairs,
    max_link_sharing,
    pathset_is_edge_disjoint,
    pathset_max_link_sharing,
    path_quality_report,
)

__all__ = [
    "Path",
    "PathSet",
    "GraphKernels",
    "kernels_for",
    "shortest_path",
    "bfs_levels",
    "k_shortest_paths",
    "edge_disjoint_paths",
    "SCHEMES",
    "compute_paths",
    "make_selector",
    "KSPSelector",
    "RandomizedKSPSelector",
    "EdgeDisjointKSPSelector",
    "RandomizedEdgeDisjointKSPSelector",
    "LLSKRSelector",
    "PathCache",
    "PathArena",
    "ArenaStore",
    "DEFAULT_STORE_DIR",
    "ecmp_paths",
    "failure_resilience",
    "pair_survives",
    "sample_link_failures",
    "surviving_paths",
    "average_path_length",
    "fraction_disjoint_pairs",
    "max_link_sharing",
    "pathset_is_edge_disjoint",
    "pathset_max_link_sharing",
    "path_quality_report",
]
