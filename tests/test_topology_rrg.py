"""Unit tests for random regular graph construction."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConstructionError, TopologyError
from repro.topology.rrg import is_connected, is_regular, random_regular_graph
from repro.utils.rng import spawn_rngs


def to_nx(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            g.add_edge(u, v)
    return g


class TestRandomRegularGraph:
    @pytest.mark.parametrize("n,degree", [(4, 3), (10, 3), (12, 4), (36, 16), (20, 19)])
    def test_regular_and_connected(self, n, degree):
        adj = random_regular_graph(n, degree, seed=0)
        assert len(adj) == n
        assert is_regular(adj, degree)
        assert is_connected(adj)

    def test_simple_graph_no_self_loops_or_parallel_edges(self):
        adj = random_regular_graph(24, 5, seed=3)
        for u, nbrs in enumerate(adj):
            assert u not in nbrs
            assert len(set(nbrs)) == len(nbrs)

    def test_symmetric(self):
        adj = random_regular_graph(18, 7, seed=2)
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                assert u in adj[v]

    def test_matches_networkx_view(self):
        adj = random_regular_graph(30, 6, seed=5)
        g = to_nx(adj)
        assert nx.is_connected(g)
        degrees = {d for _, d in g.degree()}
        assert degrees == {6}

    def test_seed_reproducibility(self):
        a = random_regular_graph(16, 5, seed=11)
        b = random_regular_graph(16, 5, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_regular_graph(16, 5, seed=11)
        b = random_regular_graph(16, 5, seed=12)
        assert a != b

    def test_odd_parity_rejected(self):
        with pytest.raises(TopologyError, match="even"):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(TopologyError, match="degree"):
            random_regular_graph(4, 4)

    def test_negative_degree_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_graph(4, -1)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_graph(0, 0)

    def test_single_node_zero_degree(self):
        assert random_regular_graph(1, 0) == [[]]

    def test_degree_zero_multi_node_disconnected(self):
        with pytest.raises(ConstructionError):
            random_regular_graph(3, 0)

    def test_complete_graph_corner(self):
        # degree = n-1 forces the complete graph.
        adj = random_regular_graph(6, 5, seed=1)
        for u, nbrs in enumerate(adj):
            assert nbrs == [v for v in range(6) if v != u]

    def test_degree_one_perfect_matching_disconnected_raises(self):
        # A 1-regular graph on >2 nodes is a perfect matching (never
        # connected), so construction must fail with ConstructionError.
        with pytest.raises(ConstructionError):
            random_regular_graph(6, 1, seed=0)

    def test_two_nodes_degree_one(self):
        assert random_regular_graph(2, 1, seed=0) == [[1], [0]]

    def test_helpers_on_irregular_input(self):
        assert not is_regular([[1], [0, 2], [1]], 1)
        assert is_connected([[1], [0, 2], [1]])
        assert not is_connected([[1], [0], [3], [2]])
        assert is_connected([])


#: (n, degree, seed) -> SHA-256 of the adjacency as an int64 (n, degree)
#: array, and the generator's next ``integers(2**63)`` draw after the
#: build.  The draws fix every topology, so any change to the construction
#: must keep them.  "paper0" is RRG(720,24,19) seeded as
#: ``compute_reports("paper", 0)`` seeds it (the second of three spawned
#: generators).
RRG_PINS = {
    (9, 6, 0): ("0a8f72674702f1b1702379ccf13c013a26743535a7e8d47d6eaf3e47a933dcd6",
                3731332126868036565),
    (24, 6, 2): ("10cebd705214639d62f37c924bcb969602beb836afc24ca842a3cea67f34f754",
                 6810930372669974254),
    (36, 16, 1): ("07a42ad2c41ed02a3daa693640b3f475e4b2974154c31a32734ff69579c219ca",
                  3418707629935638964),
    (720, 19, 0): ("52aeca34180343bd7fb8915451fbfb4ae79c315d2bcf8d5e7dd816a0a642b337",
                   3890959811451233739),
    (720, 19, 5): ("c0509b5c62e383a9a1b3775f707c7a79cd6ea6b8ca7504dd2a545cf48bb5d95f",
                   3311867868023489388),
    "paper0": ("3fc7721d3e4b4247be457ae3ef8b7188c226e1523700c9dc89e78b03cdc4efb2",
               246588694047907985),
}


@pytest.mark.parametrize("spec", list(RRG_PINS), ids=str)
def test_construction_draws_are_pinned(spec):
    if spec == "paper0":
        n, degree, rng = 720, 19, spawn_rngs(0, 3)[1]
    else:
        n, degree, seed = spec
        rng = np.random.default_rng(seed)
    adj = random_regular_graph(n, degree, rng)
    digest = hashlib.sha256(np.asarray(adj, dtype=np.int64).tobytes()).hexdigest()
    assert (digest, int(rng.integers(2**63))) == RRG_PINS[spec]
