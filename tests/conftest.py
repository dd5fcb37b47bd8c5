"""Shared fixtures: small topologies and graphs used across the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.topology import Jellyfish


@pytest.fixture(scope="session")
def bench_compare():
    """``benchmarks/compare.py``, loaded by path (it is a script, not a module)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def small_jellyfish() -> Jellyfish:
    """A tiny Jellyfish used by most unit tests: RRG(12, 8, 4), 48 hosts."""
    return Jellyfish(12, 8, 4, seed=7)


@pytest.fixture(scope="session")
def paper_small_jellyfish() -> Jellyfish:
    """The paper's small topology RRG(36, 24, 16) (288 hosts)."""
    return Jellyfish(36, 24, 16, seed=1)


@pytest.fixture()
def ring_adjacency():
    """A deterministic 6-cycle: two edge-disjoint paths between any pair."""
    n = 6
    return [sorted([(i - 1) % n, (i + 1) % n]) for i in range(n)]


@pytest.fixture()
def figure3_graph():
    """The example topology of the paper's Figure 3.

    Nodes: S1=0, A=1, B=2, C=3, E=4, F=5, G=6, H=7, I=8, D1=9.
    Edges give one 3-hop path S1-A-G-D1 and six 4-hop paths.
    """
    edges = [
        (0, 1), (0, 2), (0, 3),          # S1-A, S1-B, S1-C
        (1, 4), (2, 4), (3, 5),          # A-E, B-E, C-F
        (1, 6),                          # A-G  (3-hop path via G)
        (4, 6), (4, 7), (5, 7), (5, 8),  # E-G, E-H, F-H, F-I
        (6, 9), (7, 9), (8, 9),          # G-D1, H-D1, I-D1
    ]
    n = 10
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(x) for x in adj]
