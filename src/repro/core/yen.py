"""Yen's k-shortest loopless paths (Figure 2 of the paper).

The implementation keeps Yen's two containers: ``A`` (accepted paths) and a
candidate heap ``B``.  The shortest-path subroutine is the pluggable
tie-breaking BFS from :mod:`repro.core.dijkstra`; passing ``tie="random"``
yields the paper's rKSP (both the spur search *and* the selection among
equal-length candidates in ``B`` are randomized, so no systematic node-id
bias survives).

Two fast-path measures keep the spur loop cheap without changing a single
emitted path or RNG draw:

- the ban-free first path reads the shared per-source level field of
  :mod:`repro.core.kernels` (one BFS per source for *all* destinations);
- repeated ``(spur, bans)`` queries inside one invocation are memoised.
  Deterministic runs reuse the finished spur path outright; randomized
  runs reuse only the BFS *distance field* and re-run the backwalk, so the
  RNG consumes exactly the draws the seed implementation would.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dijkstra import shortest_path
from repro.core.kernels import LevelField, ban_masks, kernels_for
from repro.core.path import Path
from repro.errors import InsufficientPathsError, NoPathError
from repro.obs import metrics
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_in, check_positive_int

__all__ = ["k_shortest_paths"]

#: Memo sentinel distinguishing "never queried" from "unreachable".
_UNSEEN = object()


def k_shortest_paths(
    adj: Sequence[Sequence[int]],
    source: int,
    destination: int,
    k: int,
    *,
    tie: str = "min",
    rng: SeedLike = None,
    on_shortfall: str = "truncate",
) -> List[Path]:
    """The ``k`` shortest loopless paths from ``source`` to ``destination``.

    Paths are returned in nondecreasing hop order.  When fewer than ``k``
    loopless paths exist, behaviour follows ``on_shortfall``:
    ``"truncate"`` returns what was found, ``"error"`` raises
    :class:`InsufficientPathsError`.

    Parameters mirror :func:`repro.core.dijkstra.shortest_path`; ``tie`` and
    ``rng`` select vanilla KSP (``"min"``) versus rKSP (``"random"``).
    """
    check_positive_int(k, "k")
    check_in(tie, ("min", "random"), "tie")
    check_in(on_shortfall, ("truncate", "error"), "on_shortfall")
    generator = ensure_rng(rng) if tie == "random" else None
    kernels = kernels_for(adj)

    first = shortest_path(kernels, source, destination, tie=tie, rng=generator)
    if first is None:
        raise NoPathError(source, destination)

    accepted: List[Path] = [Path(first)]
    if source == destination:
        # The only loopless path is the trivial one.
        if k > 1 and on_shortfall == "error":
            raise InsufficientPathsError(source, destination, k, accepted)
        return accepted

    # Candidate heap entries: (hops, tiebreak, nodes). Deterministic runs
    # break ties lexicographically on the node tuple (small-id bias, like
    # the vanilla algorithm); randomized runs use a uniform draw.
    heap: List[Tuple[int, object, Tuple[int, ...]]] = []
    seen_candidates = {tuple(first)}
    # (spur, bans) -> spur path (deterministic) or BFS field (randomized).
    spur_memo: Dict[tuple, object] = {}
    # [queries, memo hits] — plain local tallies, published once at the
    # end so the spur loop carries no telemetry overhead.
    spur_stats = [0, 0]

    def push_candidate(nodes: Tuple[int, ...]) -> None:
        if nodes in seen_candidates:
            return
        seen_candidates.add(nodes)
        if tie == "min":
            entry = (len(nodes) - 1, nodes, nodes)
        else:
            entry = (len(nodes) - 1, float(generator.random()), nodes)
        heapq.heappush(heap, entry)

    def spur_query(
        spur: int,
        banned_nodes: frozenset,
        banned_edges: frozenset,
    ) -> Optional[List[int]]:
        """Shortest spur -> destination path under the bans (or ``None``)."""
        key = (spur, banned_nodes, banned_edges)
        hit = spur_memo.get(key, _UNSEEN)
        spur_stats[0] += 1
        if hit is not _UNSEEN:
            spur_stats[1] += 1
        if tie == "min":
            if hit is not _UNSEEN:
                return hit
            nodes = shortest_path(
                kernels, spur, destination, tie="min",
                banned_nodes=banned_nodes, banned_edges=banned_edges,
            )
            spur_memo[key] = nodes
            return nodes
        # Randomized: the BFS field is deterministic and reusable, the
        # backwalk is not — rerun it so the RNG stream matches a full
        # recomputation exactly.
        if hit is None:
            return None
        banned_out, banned_in = ban_masks(banned_edges)
        if hit is _UNSEEN:
            field = kernels.field_banned(
                spur, banned_nodes, banned_out, until=destination
            )
            if field.dist[destination] < 0:
                spur_memo[key] = None
                return None
            spur_memo[key] = field
        else:
            field = hit
        assert isinstance(field, LevelField)
        return kernels.backwalk_random(
            field, spur, destination, banned_in, generator
        )

    while len(accepted) < k:
        prev = accepted[-1].nodes
        # Spur from every node of the last accepted path except the
        # destination (Figure 2, lines 6-22).
        for j in range(len(prev) - 1):
            spur = prev[j]
            root = prev[: j + 1]
            banned_edges = set()
            for p in accepted:
                if p.nodes[: j + 1] == root and len(p.nodes) > j + 1:
                    banned_edges.add((p.nodes[j], p.nodes[j + 1]))
            spur_path = spur_query(
                spur, frozenset(root[:-1]), frozenset(banned_edges)
            )
            if spur_path is not None:
                push_candidate(root[:-1] + tuple(spur_path))
        if not heap:
            break
        _, _, nodes = heapq.heappop(heap)
        accepted.append(Path._from_trusted(nodes))

    reg = metrics._active
    if reg is not None:
        reg.counter("core.yen.invocations").inc()
        reg.counter("core.yen.spur_queries").inc(spur_stats[0])
        reg.counter("core.yen.memo_hits").inc(spur_stats[1])
    if len(accepted) < k and on_shortfall == "error":
        raise InsufficientPathsError(source, destination, k, accepted)
    return accepted

