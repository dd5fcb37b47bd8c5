"""Shared BFS kernels: the fast path under every shortest-path query.

The seed implementation ran one Python ``deque`` BFS per shortest-path
query — with numpy scalar indexing in the inner loop — which made path-table
precomputation (one Yen run per switch pair, ~15 BFS sweeps each) the
dominant fixed cost of every experiment.  This module replaces that walk
with two interchangeable kernels that produce *bit-identical* distance
fields:

- a **bitset kernel** for small graphs and for every banned-node/edge spur
  search: neighbour sets are Python integers used as bitmasks, so one BFS
  level is a handful of word-wide OR operations instead of hundreds of
  interpreted iterations (6-12x on the paper's topologies);
- a **CSR kernel** for large ban-free sweeps: the adjacency is exported
  once as ``indptr``/``indices`` numpy arrays and the frontier expands as a
  vectorized gather + mask per level (the classic frontier-expansion BFS).

On top of the kernels sits a :class:`LevelField` cache: the ban-free
distance field from a source is a pure function of the graph, so it is
computed once and shared across *all* destinations — the first path of
every Yen/Remove-Find invocation, plain SP, ECMP enumeration, and the
all-pairs topology metrics all hit the same cached field.

Banned spur searches have a single target, so their fields are
*target-directed*: they hold the levels below ``dist[until]`` plus
``dist[until]`` itself, and every other distance stays -1.  Before
expanding a level the search ANDs the frontier with the target's
neighbour mask (its in-edges, since the adjacency is undirected) and
stops on the first unbanned edge into the target, so the target's own
level — the widest one on a random regular graph — is never built.  The
backwalk reads nothing else.  Complete fields (:meth:`GraphKernels.field`,
``bfs_levels``) still fill every distance.

Exactness: BFS hop distances are unique whatever the exploration order, so
both kernels reproduce the seed's distance fields exactly; the mask-based
backwalk enumerates predecessor candidates in ascending node-id order —
identical to walking a sorted adjacency list — and draws exactly one RNG
sample per hop in randomized mode, so randomized paths (and the RNG stream
position afterwards) are byte-identical to the seed implementation.

``GraphKernels`` also implements the sequence protocol (``len``,
``adj[u]``), so it can be passed anywhere a plain adjacency list is
accepted.  Neighbour lists are assumed sorted ascending (the
:class:`~repro.topology.Jellyfish` invariant); unsorted input is normalised
on construction.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LevelField", "GraphKernels", "kernels_for"]

#: Largest node count routed to the bitset kernel for ban-free sweeps.
#: Measured crossover on random regular graphs: the bitset kernel wins up
#: to a few hundred nodes, the vectorized CSR kernel beyond.
_BITSET_MAX = 512

#: Ban-free per-source level fields cached per graph (FIFO eviction).  One
#: field is ~n pointers, so even the paper's RRG(2880,48,38) fits in tens
#: of megabytes when fully warmed.
_MAX_CACHED_FIELDS = 4096

#: Bounded id-keyed memo for adjacency lists that arrive as plain Python
#: sequences (tests, examples).  Entries hold a strong reference to the
#: adjacency, so an id can never be recycled while its entry is alive.
_KERNEL_CACHE: Dict[int, Tuple[object, "GraphKernels"]] = {}
_KERNEL_CACHE_MAX = 8


class LevelField:
    """A BFS result: per-node hop distances plus per-level node bitmasks.

    ``dist[v]`` is the hop distance from the field's source (-1 when
    unreachable or banned); ``masks[L]`` is the bitmask of nodes at
    distance exactly ``L``.  A target-directed field (``field_banned``
    with ``until``) holds only ``masks[L]`` for ``L < dist[until]`` and
    ``dist[until]``; every other distance stays -1.  Fields are immutable
    by convention — cached instances are shared between callers.
    """

    __slots__ = ("dist", "masks")

    def __init__(self, dist: List[int], masks: List[int]):
        self.dist = dist
        self.masks = masks


class GraphKernels:
    """Precomputed BFS acceleration structures for one adjacency.

    Build one per graph (or let :func:`kernels_for` memoise it) and reuse
    it for every query: the per-source level-field cache is what turns
    all-pairs path precomputation from N*(N-1) independent BFS sweeps into
    N shared ones.
    """

    __slots__ = (
        "adj", "n", "nbr_masks", "_fields", "_indptr", "_indices", "_ind2d",
    )

    def __init__(self, adj: Sequence[Sequence[int]]):
        rows = [list(map(int, nbrs)) for nbrs in adj]
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                row.sort()
        self.adj: List[List[int]] = rows
        self.n = len(rows)
        masks = []
        for nbrs in rows:
            m = 0
            for v in nbrs:
                m |= 1 << v
            masks.append(m)
        self.nbr_masks: List[int] = masks
        self._fields: Dict[int, LevelField] = {}
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._ind2d: Optional[np.ndarray] = None

    # ------------------------------------------------- sequence protocol
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, u: int) -> List[int]:
        return self.adj[u]

    def __iter__(self) -> Iterator[List[int]]:
        return iter(self.adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphKernels(n={self.n}, cached_fields={len(self._fields)})"

    # ------------------------------------------------------- CSR export
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency as CSR ``(indptr, indices)`` int64 arrays."""
        if self._indptr is None:
            counts = np.fromiter(
                (len(r) for r in self.adj), dtype=np.int64, count=self.n
            )
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.fromiter(
                (v for r in self.adj for v in r),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            self._indptr, self._indices = indptr, indices
            if self.n and counts.size and (counts == counts[0]).all() and counts[0]:
                self._ind2d = indices.reshape(self.n, int(counts[0]))
        return self._indptr, self._indices

    # ----------------------------------------------------------- fields
    def field(self, source: int) -> LevelField:
        """The ban-free level field from ``source`` (cached, complete)."""
        found = self._fields.get(source)
        if found is None:
            if self.n <= _BITSET_MAX:
                found = self._bfs_bitset(source, 0, None)
            else:
                found = self._bfs_csr(source)
            if len(self._fields) >= _MAX_CACHED_FIELDS:
                self._fields.pop(next(iter(self._fields)))
            self._fields[source] = found
        return found

    def field_banned(
        self,
        source: int,
        banned_nodes: AbstractSet[int],
        banned_out: Optional[Dict[int, int]],
        until: Optional[int] = None,
    ) -> LevelField:
        """An uncached level field honouring bans (``source`` unbanned).

        ``banned_out`` maps a node to the bitmask of neighbours its out-
        edges may not reach (directed bans).  Without ``until`` the field
        is complete.  With ``until`` set it is target-directed: ``masks``
        holds the levels below ``dist[until]`` and ``dist[until]`` is the
        only distance written (every other entry stays -1) — exactly what
        a backwalk to ``until`` reads.  The search stops as soon as some
        frontier node has an unbanned edge into ``until``, so the
        target's own level is never built; that test reads
        ``nbr_masks[until]`` as ``until``'s in-edges, which holds because
        the adjacency is undirected.
        """
        block = 0
        for b in banned_nodes:
            block |= 1 << b
        if until is None:
            return self._bfs_bitset(source, block, banned_out)
        return self._bfs_until(source, block, banned_out, until)

    def _expand(self, frontier: int, banned_out: Optional[Dict[int, int]]) -> int:
        """The union of the frontier's neighbour masks under edge bans."""
        nbr_masks = self.nbr_masks
        nxt = 0
        f = frontier
        if banned_out:
            while f:
                b = f & -f
                f ^= b
                u = b.bit_length() - 1
                m = nbr_masks[u]
                bo = banned_out.get(u)
                nxt |= m if bo is None else m & ~bo
        else:
            while f:
                b = f & -f
                f ^= b
                nxt |= nbr_masks[b.bit_length() - 1]
        return nxt

    def _bfs_bitset(
        self,
        source: int,
        block: int,
        banned_out: Optional[Dict[int, int]],
    ) -> LevelField:
        """Complete bitset BFS: every reachable node's distance and level."""
        dist = [-1] * self.n
        dist[source] = 0
        start = 1 << source
        masks = [start]
        visited = start | block
        frontier = start
        level = 0
        while True:
            nxt = self._expand(frontier, banned_out) & ~visited
            if not nxt:
                return LevelField(dist, masks)
            level += 1
            visited |= nxt
            masks.append(nxt)
            g = nxt
            while g:
                b = g & -g
                g ^= b
                dist[b.bit_length() - 1] = level
            frontier = nxt

    def _bfs_until(
        self,
        source: int,
        block: int,
        banned_out: Optional[Dict[int, int]],
        until: int,
    ) -> LevelField:
        """Target-directed bitset BFS (see :meth:`field_banned`)."""
        dist = [-1] * self.n
        start = 1 << source
        target = 1 << until
        visited = start | block
        if visited & target:
            if until == source:
                dist[until] = 0
            return LevelField(dist, [])
        into = self.nbr_masks[until]
        masks = [start]
        frontier = start
        while True:
            near = frontier & into
            while near:
                b = near & -near
                near ^= b
                bo = banned_out.get(b.bit_length() - 1) if banned_out else None
                if bo is None or not bo & target:
                    dist[until] = len(masks)
                    return LevelField(dist, masks)
            nxt = self._expand(frontier, banned_out) & ~visited
            if not nxt:
                return LevelField(dist, masks)
            visited |= nxt
            masks.append(nxt)
            frontier = nxt

    def _bfs_csr(self, source: int) -> LevelField:
        """Vectorized frontier-expansion BFS (ban-free, complete field)."""
        indptr, indices = self.csr()
        n = self.n
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        masks = [1 << source]
        ind2d = self._ind2d
        level = 0
        while frontier.size:
            if ind2d is not None:
                nbrs = ind2d[frontier].ravel()
            else:
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                total = int(counts.sum())
                if not total:
                    break
                # Flatten the per-node index ranges into one gather.
                pos = np.repeat(
                    starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                    counts,
                ) + np.arange(total, dtype=np.int64)
                nbrs = indices[pos]
            new = nbrs[dist[nbrs] < 0]
            if not new.size:
                break
            level += 1
            dist[new] = level
            # The level's bit array, read back, is its sorted unique ids.
            bits = np.zeros(n, dtype=bool)
            bits[new] = True
            frontier = np.flatnonzero(bits)
            masks.append(
                int.from_bytes(
                    np.packbits(bits, bitorder="little").tobytes(), "little"
                )
            )
        return LevelField(dist.tolist(), masks)

    # --------------------------------------------------------- backwalk
    def backwalk_min(
        self,
        field: LevelField,
        source: int,
        destination: int,
        banned_in: Optional[Dict[int, int]],
    ) -> List[int]:
        """Deterministic backwalk: smallest-id predecessor at every hop."""
        dist = field.dist
        masks = field.masks
        nbr_masks = self.nbr_masks
        path = [destination]
        v = destination
        dv = dist[destination]
        while v != source:
            cand = nbr_masks[v] & masks[dv - 1]
            if banned_in:
                bi = banned_in.get(v)
                if bi is not None:
                    cand &= ~bi
            u = (cand & -cand).bit_length() - 1
            path.append(u)
            v = u
            dv -= 1
        path.reverse()
        return path

    def backwalk_random(
        self,
        field: LevelField,
        source: int,
        destination: int,
        banned_in: Optional[Dict[int, int]],
        generator: np.random.Generator,
    ) -> List[int]:
        """Randomized backwalk: uniform predecessor choice at every hop.

        Candidates are enumerated in ascending node id (== sorted adjacency
        order) and exactly one ``integers`` draw happens per hop, matching
        the seed implementation's RNG consumption bit for bit.
        """
        dist = field.dist
        masks = field.masks
        nbr_masks = self.nbr_masks
        path = [destination]
        v = destination
        dv = dist[destination]
        while v != source:
            cand = nbr_masks[v] & masks[dv - 1]
            if banned_in:
                bi = banned_in.get(v)
                if bi is not None:
                    cand &= ~bi
            idx = int(generator.integers(cand.bit_count()))
            for _ in range(idx):
                cand &= cand - 1
            u = (cand & -cand).bit_length() - 1
            path.append(u)
            v = u
            dv -= 1
        path.reverse()
        return path


def ban_masks(
    banned_edges: AbstractSet[Tuple[int, int]],
) -> Tuple[Optional[Dict[int, int]], Optional[Dict[int, int]]]:
    """Split directed edge bans into per-node out/in bitmasks.

    Returns ``(banned_out, banned_in)`` where ``banned_out[u]`` masks the
    targets ``u`` may not reach and ``banned_in[v]`` masks the predecessors
    that may not enter ``v`` — the forms the BFS and the backwalk consume.
    """
    if not banned_edges:
        return None, None
    banned_out: Dict[int, int] = {}
    banned_in: Dict[int, int] = {}
    for u, v in banned_edges:
        banned_out[u] = banned_out.get(u, 0) | (1 << v)
        banned_in[v] = banned_in.get(v, 0) | (1 << u)
    return banned_out, banned_in


def kernels_for(adj: Sequence[Sequence[int]]) -> GraphKernels:
    """The :class:`GraphKernels` for ``adj``, memoised per adjacency object.

    Prefer holding an explicit ``GraphKernels`` (e.g.
    :attr:`repro.topology.Jellyfish.kernels`) in hot paths; this accessor
    exists so the public functional API (``shortest_path(adj, ...)``)
    amortises kernel construction across calls.  The adjacency is treated
    as immutable once queried.
    """
    if isinstance(adj, GraphKernels):
        return adj
    key = id(adj)
    entry = _KERNEL_CACHE.get(key)
    if entry is not None and entry[0] is adj:
        return entry[1]
    kernels = GraphKernels(adj)
    _KERNEL_CACHE[key] = (adj, kernels)
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    return kernels
