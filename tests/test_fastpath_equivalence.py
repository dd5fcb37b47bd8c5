"""Byte-equivalence of the fast path-table pipeline with the seed kernels.

The fast kernels (bitset/CSR BFS, cached per-source level fields, spur
memoization, trusted Path construction) are pure optimisations: every
scheme must produce *exactly* the paths the original straightforward
implementation produced, RNG draw for RNG draw.  This module pins that
contract with a self-contained reference implementation — a direct
transcription of the seed's deque-BFS shortest path, Yen, Remove-Find and
LLSKR — and compares full PathCache output against it for all six schemes
across several master seeds.  It also pins the parallel half of the
pipeline: ``precompute_parallel`` must merge to the identical table
whatever the worker count.  The persistent half (the arena store) is
pinned in ``test_core_arena.py``.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np
import pytest

from repro import Jellyfish, PathCache


# --------------------------------------------------------------------------
# Reference implementation: the seed's path machinery, verbatim semantics.
# Kept deliberately independent of repro.core so kernel regressions cannot
# cancel out.
# --------------------------------------------------------------------------

def _ref_bfs_levels(adj, source, banned_nodes=frozenset(), banned_edges=frozenset()):
    n = len(adj)
    dist = [-1] * n
    if source in banned_nodes:
        return dist
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] >= 0 or v in banned_nodes:
                continue
            if banned_edges and (u, v) in banned_edges:
                continue
            dist[v] = du
            queue.append(v)
    return dist


def _ref_shortest_path(
    adj, source, destination, *, tie="min", rng=None,
    banned_nodes=frozenset(), banned_edges=frozenset(),
):
    if source == destination:
        return None if source in banned_nodes else [source]
    if source in banned_nodes or destination in banned_nodes:
        return None
    dist = _ref_bfs_levels(adj, source, banned_nodes, banned_edges)
    if dist[destination] < 0:
        return None
    path = [destination]
    v = destination
    while v != source:
        target = dist[v] - 1
        candidates = []
        for u in adj[v]:
            if dist[u] != target or u in banned_nodes:
                continue
            if banned_edges and (u, v) in banned_edges:
                continue
            candidates.append(u)
            if tie == "min":
                break  # adj is sorted: first hit is the smallest id
        if tie == "min":
            u = candidates[0]
        else:
            # The seed draws even with a single candidate; the fast
            # backwalk must consume the identical RNG stream.
            u = int(candidates[int(rng.integers(len(candidates)))])
        path.append(u)
        v = u
    path.reverse()
    return path


def _ref_k_shortest_paths(adj, source, destination, k, *, tie="min", rng=None):
    first = _ref_shortest_path(adj, source, destination, tie=tie, rng=rng)
    assert first is not None
    accepted = [tuple(first)]
    heap = []
    seen = {tuple(first)}

    def push(nodes):
        if nodes in seen:
            return
        seen.add(nodes)
        if tie == "min":
            heapq.heappush(heap, (len(nodes) - 1, nodes, nodes))
        else:
            heapq.heappush(heap, (len(nodes) - 1, float(rng.random()), nodes))

    while len(accepted) < k:
        prev = accepted[-1]
        for j in range(len(prev) - 1):
            root = prev[: j + 1]
            banned_edges = set()
            for p in accepted:
                if p[: j + 1] == root and len(p) > j + 1:
                    banned_edges.add((p[j], p[j + 1]))
            spur_path = _ref_shortest_path(
                adj, prev[j], destination, tie=tie, rng=rng,
                banned_nodes=set(root[:-1]), banned_edges=banned_edges,
            )
            if spur_path is not None:
                push(root[:-1] + tuple(spur_path))
        if not heap:
            break
        _, _, nodes = heapq.heappop(heap)
        accepted.append(nodes)
    return accepted


def _ref_edge_disjoint(adj, source, destination, k, *, tie="min", rng=None):
    paths = []
    banned = set()
    for _ in range(k):
        nodes = _ref_shortest_path(
            adj, source, destination, tie=tie, rng=rng, banned_edges=banned
        )
        if nodes is None:
            break
        paths.append(tuple(nodes))
        for u, v in zip(nodes, nodes[1:]):
            banned.add((u, v))
            banned.add((v, u))
    return paths


def _ref_llskr(adj, source, destination, k, *, spread=1):
    k_min = max(1, k // 2)
    candidates = _ref_k_shortest_paths(adj, source, destination, k, tie="min")
    limit = (len(candidates[0]) - 1) + spread
    within = [p for p in candidates if len(p) - 1 <= limit]
    if len(within) >= k_min:
        return within
    return candidates[: min(k_min, len(candidates))]


def _ref_select(scheme, adj, s, d, k, rng):
    if scheme == "sp":
        return _ref_k_shortest_paths(adj, s, d, 1, tie="min")
    if scheme == "ksp":
        return _ref_k_shortest_paths(adj, s, d, k, tie="min")
    if scheme == "rksp":
        return _ref_k_shortest_paths(adj, s, d, k, tie="random", rng=rng)
    if scheme == "edksp":
        return _ref_edge_disjoint(adj, s, d, k, tie="min")
    if scheme == "redksp":
        return _ref_edge_disjoint(adj, s, d, k, tie="random", rng=rng)
    if scheme == "llskr":
        return _ref_llskr(adj, s, d, k)
    raise AssertionError(scheme)


def _pair_rng(seed, s, d):
    """The PathCache per-pair RNG derivation, replicated independently."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(s, d))
    )


# --------------------------------------------------------------------------
# Scheme equivalence
# --------------------------------------------------------------------------

K = 8
SCHEMES = ["sp", "ksp", "rksp", "edksp", "redksp", "llskr"]


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(36, 24, 16, seed=1)


def _sample_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < count:
        s, d = (int(x) for x in rng.integers(0, n, 2))
        if s != d:
            pairs.add((s, d))
    return sorted(pairs)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("master_seed", [0, 1, 42])
def test_scheme_matches_reference(topo, scheme, master_seed):
    adj = topo.adjacency
    cache = PathCache(topo, scheme, k=K, seed=master_seed)
    for s, d in _sample_pairs(topo.n_switches, 15, seed=master_seed + 100):
        got = [tuple(p) for p in cache.get(s, d)]
        want = [
            tuple(p)
            for p in _ref_select(scheme, adj, s, d, K, _pair_rng(master_seed, s, d))
        ]
        assert got == want, (scheme, master_seed, s, d)


def test_randomized_schemes_consume_identical_rng_stream(topo):
    # Beyond equal paths: the fast kernels must leave the generator at the
    # same position, or downstream draws would silently diverge.
    from repro.core.yen import k_shortest_paths

    adj = topo.adjacency
    for s, d in _sample_pairs(topo.n_switches, 5, seed=9):
        r_fast, r_ref = np.random.default_rng(7), np.random.default_rng(7)
        k_shortest_paths(adj, s, d, K, tie="random", rng=r_fast)
        _ref_k_shortest_paths(adj, s, d, K, tie="random", rng=r_ref)
        assert r_fast.integers(1 << 30) == r_ref.integers(1 << 30)


# --------------------------------------------------------------------------
# Parallel precompute equivalence
# --------------------------------------------------------------------------

def _table(cache):
    return {
        pair: [tuple(p) for p in ps] for pair, ps in cache.export_state().items()
    }


def test_precompute_parallel_matches_serial(topo):
    pairs = _sample_pairs(topo.n_switches, 40, seed=3)
    serial = PathCache(topo, "rksp", k=K, seed=5)
    serial.precompute_parallel(pairs, processes=1)
    parallel = PathCache(topo, "rksp", k=K, seed=5)
    computed = parallel.precompute_parallel(pairs, processes=4)
    assert computed == len(pairs)
    assert _table(parallel) == _table(serial)


def test_precompute_parallel_skips_known_pairs(topo):
    cache = PathCache(topo, "ksp", k=K, seed=0)
    pairs = [(0, 1), (0, 2)]
    assert cache.precompute_parallel(pairs) == 2
    assert cache.precompute_parallel(pairs + [(0, 3)]) == 1
