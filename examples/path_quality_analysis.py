#!/usr/bin/env python
"""Path-quality study: why vanilla KSP misbehaves on Jellyfish.

Reproduces the Section III-A argument end to end:

1. On the paper's Figure 3 example graph, vanilla KSP funnels all three
   paths through the same first link while rKSP/EDKSP spread them.
2. On a real Jellyfish, sweeps k and reports the Tables II-IV metrics per
   scheme, showing that edge-disjointness costs almost no extra path
   length.

The k-sweep warms each path table through the fast pipeline and persists
it in a local store, so re-running the script recomputes nothing.

Run with::

    python examples/path_quality_analysis.py
"""

import tempfile
from pathlib import Path as FsPath

from repro import ArenaStore, Jellyfish, PathCache
from repro.core import k_shortest_paths, edge_disjoint_paths
from repro.core.properties import path_quality_report
from repro.utils.tables import format_table


def figure3_graph():
    """The paper's Figure 3 topology (S1=0, A..I=1..8, D1=9)."""
    edges = [
        (0, 1), (0, 2), (0, 3),
        (1, 4), (2, 4), (3, 5),
        (1, 6),
        (4, 6), (4, 7), (5, 7), (5, 8),
        (6, 9), (7, 9), (8, 9),
    ]
    adj = [[] for _ in range(10)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(x) for x in adj]


def main() -> None:
    names = {0: "S1", 1: "A", 2: "B", 3: "C", 4: "E", 5: "F",
             6: "G", 7: "H", 8: "I", 9: "D1"}

    adj = figure3_graph()
    print("Figure 3 example: 3 shortest paths from S1 to D1")
    print("  vanilla KSP (deterministic):")
    for p in k_shortest_paths(adj, 0, 9, 3, tie="min"):
        print("    " + " -> ".join(names[v] for v in p))
    print("  edge-disjoint (Remove-Find):")
    for p in edge_disjoint_paths(adj, 0, 9, 3, tie="min"):
        print("    " + " -> ".join(names[v] for v in p))
    print("  (note every vanilla path crosses S1->A; the RF paths do not)\n")

    topo = Jellyfish(16, 12, 9, seed=5)
    # Persist warmed path tables next to the system temp dir; a second run
    # of this script loads them instead of re-running Yen's algorithm.
    store = ArenaStore(FsPath(tempfile.gettempdir()) / "repro-example-paths")
    print(f"k-sweep on {topo}: Tables II-IV metrics per scheme")
    print(f"(path tables persisted under {store.root})")
    rows = []
    for k in (2, 4, 8):
        for scheme in ("ksp", "rksp", "edksp", "redksp"):
            cache = PathCache(topo, scheme, k=k, seed=0)
            cache.warm(store=store)
            rep = path_quality_report(cache.all_pairs())
            rows.append(
                [
                    k,
                    scheme,
                    round(rep["average_path_length"], 3),
                    f"{100 * rep['fraction_disjoint_pairs']:.0f}%",
                    rep["max_link_sharing"],
                ]
            )
    print(
        format_table(
            ["k", "scheme", "avg path len", "disjoint pairs", "max link sharing"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
