"""Stencil (nearest-neighbour) application workloads.

Generates the communication sets of the four CODES applications in Section
IV-E as ``(source rank, destination rank, bytes)`` messages:

=============== ========== =====================================
name             neighbours  geometry
=============== ========== =====================================
``2dnn``         4           2-D grid, ±1 per axis
``2dnndiag``     8           2-D grid, full Moore neighbourhood
``3dnn``         6           3-D grid, ±1 per axis
``3dnndiag``     26          3-D grid, full Moore neighbourhood
=============== ========== =====================================

Grids are periodic (torus), so every rank has the full neighbour count and
"each process sends to 4 neighbours" holds exactly, as in the paper's trace
description.  Each rank sends ``total_bytes`` split evenly over its
neighbours (the paper's 15 MB / process).

This module replaces the paper's DUMPI traces: the evaluation consumes
nothing from a trace beyond this (src, dst, bytes) multiset.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import TrafficError
from repro.utils.validation import check_positive_int

__all__ = ["STENCILS", "grid_dims", "stencil_messages"]

#: stencil name -> (dimensionality, include diagonals)
STENCILS: Dict[str, Tuple[int, bool]] = {
    "2dnn": (2, False),
    "2dnndiag": (2, True),
    "3dnn": (3, False),
    "3dnndiag": (3, True),
}


def grid_dims(n_ranks: int, ndim: int) -> Tuple[int, ...]:
    """Factor ``n_ranks`` into ``ndim`` near-equal grid dimensions.

    Chooses the factorisation minimising the spread between the largest and
    smallest dimension (e.g. 3600 ranks -> (60, 60) in 2-D and
    (16, 15, 15) in 3-D, the paper's choices).  Raises if ``n_ranks`` has no
    ``ndim``-factor decomposition other than degenerate 1-sized dims and
    even that fails.
    """
    check_positive_int(n_ranks, "n_ranks")
    check_positive_int(ndim, "ndim")
    best: Tuple[int, ...] | None = None

    def search(remaining: int, dims_left: int, acc: List[int]):
        nonlocal best
        if dims_left == 1:
            cand = tuple(sorted(acc + [remaining], reverse=True))
            if best is None or (cand[0] - cand[-1], cand[0]) < (
                best[0] - best[-1], best[0]
            ):
                best = cand
            return
        f = 1
        while f * f <= remaining:
            if remaining % f == 0:
                search(remaining // f, dims_left - 1, acc + [f])
                search(f, dims_left - 1, acc + [remaining // f])
            f += 1

    search(n_ranks, ndim, [])
    assert best is not None
    return best


def _neighbour_offsets(ndim: int, diagonals: bool) -> List[Tuple[int, ...]]:
    if diagonals:
        return [
            off
            for off in itertools.product((-1, 0, 1), repeat=ndim)
            if any(off)
        ]
    offsets = []
    for axis in range(ndim):
        for delta in (-1, 1):
            off = [0] * ndim
            off[axis] = delta
            offsets.append(tuple(off))
    return offsets


def stencil_messages(
    name: str,
    n_ranks: int,
    total_bytes: float = 15e6,
    dims: Sequence[int] | None = None,
) -> List[Tuple[int, int, float]]:
    """Messages of one stencil exchange: ``(src rank, dst rank, bytes)``.

    ``total_bytes`` is the per-rank send volume, split evenly over the
    rank's neighbours.  ``dims`` overrides the automatic grid factorisation
    (must multiply to ``n_ranks``).
    """
    try:
        ndim, diagonals = STENCILS[name]
    except KeyError:
        raise TrafficError(
            f"unknown stencil {name!r}; choose from {sorted(STENCILS)}"
        ) from None
    check_positive_int(n_ranks, "n_ranks")
    if not (math.isfinite(total_bytes) and total_bytes > 0):
        raise TrafficError(f"total_bytes must be finite and > 0, got {total_bytes}")

    if dims is None:
        shape = grid_dims(n_ranks, ndim)
    else:
        shape = tuple(int(d) for d in dims)
        if len(shape) != ndim:
            raise TrafficError(
                f"{name} needs {ndim} dims, got {len(shape)}"
            )
        prod = 1
        for d in shape:
            prod *= d
        if prod != n_ranks:
            raise TrafficError(
                f"dims {shape} multiply to {prod}, expected {n_ranks}"
            )
    if min(shape) < 1:
        raise TrafficError(f"degenerate grid {shape}")

    offsets = _neighbour_offsets(ndim, diagonals)

    # rank <-> coordinate conversion, row-major.
    strides = [1] * ndim
    for i in range(ndim - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]

    def coord(rank: int) -> Tuple[int, ...]:
        return tuple((rank // strides[i]) % shape[i] for i in range(ndim))

    def rank_of(c: Sequence[int]) -> int:
        return sum((c[i] % shape[i]) * strides[i] for i in range(ndim))

    messages: List[Tuple[int, int, float]] = []
    for src in range(n_ranks):
        c = coord(src)
        # On tiny grids opposite wrap-around neighbours coincide (dim 2) or
        # degenerate to the rank itself (dim 1).  Merge duplicates and
        # normalise over the surviving multiplicity so each rank's sends
        # always total total_bytes.
        dests: Dict[int, int] = {}
        for off in offsets:
            dst = rank_of([c[i] + off[i] for i in range(ndim)])
            if dst != src:
                dests[dst] = dests.get(dst, 0) + 1
        weight = sum(dests.values())
        for dst, multiplicity in sorted(dests.items()):
            messages.append((src, dst, total_bytes * multiplicity / weight))
    return messages
