"""Random regular graph construction for Jellyfish.

Implements the incremental construction described in the Jellyfish paper
(Singla et al., NSDI'12): repeatedly join random switch pairs that both have
free ports and are not yet connected; when the process gets stuck with free
ports remaining, break a random existing link and rewire it through the stuck
switch.  The result is a uniform-ish random ``degree``-regular simple graph.

The construction is retried (with independent random substreams) until the
graph is connected.  For ``degree >= 3`` a random regular graph is connected
with high probability, so retries are rare.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

from repro.errors import ConstructionError, TopologyError
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["random_regular_graph", "is_regular", "is_connected"]


def _attempt(n: int, degree: int, rng) -> List[Set[int]] | None:
    """One construction attempt.  Returns adjacency sets or ``None`` on failure."""
    adj: List[Set[int]] = [set() for _ in range(n)]
    free = {i for i in range(n) if degree > 0}

    def connect(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        if len(adj[u]) == degree:
            free.discard(u)
        if len(adj[v]) == degree:
            free.discard(v)

    def disconnect(u: int, v: int) -> None:
        adj[u].discard(v)
        adj[v].discard(u)
        free.add(u)
        free.add(v)

    stuck_rounds = 0
    while free:
        # Random pair join phase: try a bounded number of random picks before
        # declaring the phase stuck.  ``free`` only changes on a join, so one
        # snapshot serves the round.  The draws fix every topology: ``choice``
        # draws indices from the population size alone, so two indices into
        # the snapshot pick the pair that choosing from it directly would.
        members = list(free)
        joined = False
        for _ in range(4 * len(members) + 16):
            if len(members) < 2:
                break
            i, j = rng.choice(len(members), size=2, replace=False)
            u, v = members[i], members[j]
            if v not in adj[u]:
                connect(u, v)
                joined = True
                break
        if not joined and len(free) >= 2:
            # Random picks failed; scan exhaustively before declaring the
            # join phase stuck (random picks can miss the last few pairs).
            order = list(free)
            rng.shuffle(order)
            for i, u in enumerate(order):
                for v in order[i + 1:]:
                    if v not in adj[u]:
                        connect(u, v)
                        joined = True
                        break
                if joined:
                    break
        if joined:
            stuck_rounds = 0
            continue

        # Stuck: the free switches form a clique (or a single switch).
        # Rewire through an existing edge (x, y):
        #   - if some free switch u has >= 2 spare ports, replace (x, y)
        #     with (u, x) and (u, y) where x, y are non-adjacent to u;
        #   - otherwise pick two free switches u, w (one spare port each)
        #     and replace (x, y) with (u, x) and (w, y), with x
        #     non-adjacent to u and y non-adjacent to w.
        stuck_rounds += 1
        if stuck_rounds > 256:
            return None
        free_list = list(free)
        rng.shuffle(free_list)
        u = next(
            (s for s in free_list if degree - len(adj[s]) >= 2), None
        )
        w = None
        if u is None:
            if len(free_list) < 2:
                # A lone switch with one spare port: parity (n * degree
                # even) makes this unreachable, but guard anyway.
                return None
            u, w = free_list[0], free_list[1]
        all_edges = [(a, b) for a in range(n) for b in adj[a] if a < b]
        rng.shuffle(all_edges)
        rewired = False
        for (x, y) in all_edges:
            ends = {x, y}
            if u in ends or (w is not None and w in ends):
                continue
            if w is None:
                if x in adj[u] or y in adj[u]:
                    continue
                disconnect(x, y)
                connect(u, x)
                connect(u, y)
            else:
                # Try both orientations of (x, y) against (u, w).
                if x not in adj[u] and y not in adj[w]:
                    pass
                elif y not in adj[u] and x not in adj[w]:
                    x, y = y, x
                else:
                    continue
                disconnect(x, y)
                connect(u, x)
                connect(w, y)
            rewired = True
            break
        if not rewired:
            return None
    return adj


def random_regular_graph(
    n: int, degree: int, seed: SeedLike = None, max_tries: int = 32
) -> List[List[int]]:
    """Build a connected random ``degree``-regular simple graph on ``n`` nodes.

    Returns an adjacency structure ``adj`` where ``adj[u]`` is the sorted list
    of neighbours of ``u``.  Raises :class:`ConstructionError` if the
    parameters are infeasible or construction keeps failing.
    """
    if n < 1:
        raise TopologyError(f"need at least one switch, got n={n}")
    if degree < 0 or degree >= n:
        raise TopologyError(
            f"degree must satisfy 0 <= degree < n; got degree={degree}, n={n}"
        )
    if (n * degree) % 2 != 0:
        raise TopologyError(
            f"n * degree must be even for a regular graph; got n={n}, degree={degree}"
        )
    if degree == 0:
        if n == 1:
            return [[]]
        raise ConstructionError("degree-0 graph on more than one switch is disconnected")

    rng = ensure_rng(seed)
    for _ in range(max_tries):
        adj = _attempt(n, degree, rng)
        if adj is None:
            continue
        adj_lists = [sorted(s) for s in adj]
        if is_connected(adj_lists):
            return adj_lists
    raise ConstructionError(
        f"failed to build a connected {degree}-regular graph on {n} switches "
        f"after {max_tries} attempts"
    )


def is_regular(adj: List[List[int]], degree: int | None = None) -> bool:
    """True if every node in ``adj`` has the same degree (``degree`` if given)."""
    if not adj:
        return True
    d = len(adj[0]) if degree is None else degree
    return all(len(nbrs) == d for nbrs in adj)


def is_connected(adj: List[List[int]]) -> bool:
    """True if the graph in adjacency-list form is connected (BFS)."""
    n = len(adj)
    if n == 0:
        return True
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n
