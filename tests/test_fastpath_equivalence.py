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
from hypothesis import given, settings, strategies as st

from repro import Jellyfish, PathCache
from repro.core.dijkstra import bfs_levels, shortest_path
from repro.core.kernels import _BITSET_MAX, GraphKernels, ban_masks


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


@pytest.fixture(scope="module")
def topologies(topo):
    """(topology, pairs per seed): the paper's small RRG and RRG(720,24,19).

    RRG(36,24,16) has diameter 2, so its spur searches stay shallow; on
    RRG(720,24,19) they go 3-4 levels deep and Remove-Find's edge bans
    accumulate over the k rounds.
    """
    return [(topo, 15), (Jellyfish(720, 24, 19, seed=1), 5)]


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
def test_scheme_matches_reference(topologies, scheme, master_seed):
    for topo, count in topologies:
        adj = topo.adjacency
        n = topo.n_switches
        cache = PathCache(topo, scheme, k=K, seed=master_seed)
        for s, d in _sample_pairs(n, count, seed=master_seed + 100):
            got = [tuple(p) for p in cache.get(s, d)]
            want = [
                tuple(p)
                for p in _ref_select(
                    scheme, adj, s, d, K, _pair_rng(master_seed, s, d)
                )
            ]
            assert got == want, (n, scheme, master_seed, s, d)


def test_randomized_schemes_consume_identical_rng_stream(topologies):
    # Beyond equal paths: the fast kernels must leave the generator at the
    # same position, or downstream draws would silently diverge.
    from repro.core.remove_find import edge_disjoint_paths
    from repro.core.yen import k_shortest_paths

    for topo, _ in topologies:
        adj = topo.adjacency
        for s, d in _sample_pairs(topo.n_switches, 5, seed=9):
            for fast, ref in (
                (k_shortest_paths, _ref_k_shortest_paths),
                (edge_disjoint_paths, _ref_edge_disjoint),
            ):
                r_fast, r_ref = np.random.default_rng(7), np.random.default_rng(7)
                fast(adj, s, d, K, tie="random", rng=r_fast)
                ref(adj, s, d, K, tie="random", rng=r_ref)
                assert r_fast.integers(1 << 30) == r_ref.integers(1 << 30), (
                    topo.n_switches, fast.__name__, s, d,
                )


# --------------------------------------------------------------------------
# Target-directed spur searches against the reference BFS
# --------------------------------------------------------------------------

#: Which ``until`` a generated case forces.
_UNTIL_CASES = ("any", "cut_off", "banned", "adjacent", "source")


@st.composite
def _spur_cases(draw):
    """A connected undirected graph, bans, a source and an ``until``."""
    n = draw(st.integers(4, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {
        tuple(sorted((int(v), int(rng.integers(v)))))
        for v in range(1, n)
    }  # a random spanning tree, so the graph is connected
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(row) for row in adj]

    source = int(rng.integers(n))
    case = draw(st.sampled_from(_UNTIL_CASES))
    if case == "adjacent":
        until = int(rng.choice(adj[source]))
    elif case == "source":
        until = source
    else:
        until = int(rng.choice([v for v in range(n) if v != source]))
    banned_nodes = {
        int(v) for v in rng.choice(n, size=int(rng.integers(n // 3 + 1)))
        if v != source and v != until
    }
    directed = [(u, v) for u in range(n) for v in adj[u]]
    banned_edges = {
        directed[i]
        for i in rng.choice(len(directed), size=int(rng.integers(len(directed) // 3 + 1)))
    }
    if case == "cut_off":
        banned_edges |= {(u, until) for u in adj[until]}
    elif case == "banned":
        banned_nodes.add(until)
    return adj, source, until, banned_nodes, banned_edges, case


@settings(max_examples=300, deadline=None)
@given(spec=_spur_cases(), seed=st.integers(0, 2**32 - 1))
def test_target_directed_field_matches_reference(spec, seed):
    adj, source, until, banned_nodes, banned_edges, case = spec
    kernels = GraphKernels(adj)
    banned_out, _ = ban_masks(banned_edges)
    field = kernels.field_banned(source, banned_nodes, banned_out, until=until)
    ref = _ref_bfs_levels(adj, source, banned_nodes, banned_edges)

    d = field.dist[until]
    assert d == ref[until]
    if case == "source":
        assert d == 0
    if case in ("banned", "cut_off"):
        assert d == -1
    # Only the target's distance is written ...
    assert all(x == -1 for v, x in enumerate(field.dist) if v != until)
    if d >= 0:
        # ... and the levels below it, not the target's own level.
        assert len(field.masks) == d
    for level in range(max(d, 0)):
        want = sum(1 << v for v, x in enumerate(ref) if x == level)
        assert field.masks[level] == want, level

    # The complete banned field is untouched.
    assert bfs_levels(adj, source, banned_nodes, banned_edges).tolist() == ref

    for tie in ("min", "random"):
        r_fast = np.random.default_rng(seed)
        r_ref = np.random.default_rng(seed)
        got = shortest_path(
            adj, source, until, tie=tie, rng=r_fast,
            banned_nodes=banned_nodes, banned_edges=banned_edges,
        )
        want = _ref_shortest_path(
            adj, source, until, tie=tie, rng=r_ref,
            banned_nodes=banned_nodes, banned_edges=banned_edges,
        )
        assert got == want, tie
        assert r_fast.integers(1 << 30) == r_ref.integers(1 << 30), tie


def test_csr_field_matches_reference_with_unequal_degrees():
    # Above _BITSET_MAX nodes, field() runs the CSR BFS; unequal degrees
    # make it gather each frontier node's neighbour range instead of
    # reading the 2-D neighbour table of a regular graph.
    adj = [list(row) for row in Jellyfish(720, 24, 19, seed=1).adjacency]
    rng = np.random.default_rng(0)
    ends = []
    for u in rng.choice(len(adj), size=8, replace=False).tolist():
        v = adj[u][0]
        adj[u].remove(v)
        adj[v].remove(u)
        ends += [u, v]
    kernels = GraphKernels(adj)
    assert kernels.n > _BITSET_MAX
    kernels.csr()
    assert kernels._ind2d is None
    for source in ends + rng.choice(len(adj), size=16, replace=False).tolist():
        field = kernels.field(source)
        ref = _ref_bfs_levels(adj, source)
        assert field.dist == ref, source
        assert len(field.masks) == max(ref) + 1
        for level, mask in enumerate(field.masks):
            assert mask == sum(1 << v for v, x in enumerate(ref) if x == level)


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
