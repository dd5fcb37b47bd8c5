"""The Jellyfish topology: an RRG of switches plus attached compute nodes.

``Jellyfish(n_switches, ports, uplinks)`` mirrors the paper's
``RRG(N, x, y)`` notation: ``N`` switches with ``x`` ports each, ``y`` of
which connect to other switches, leaving ``x - y`` compute nodes ("hosts")
per switch.  Hosts are numbered ``0 .. N*(x-y) - 1`` with host ``h`` attached
to switch ``h // (x - y)`` — the linear host layout assumed by the paper's
"linear mapping".

The class also assigns a stable integer id to every *directed* switch-to-
switch link (plus per-host injection/ejection links), which the throughput
model and both simulators use to index NumPy load/occupancy arrays instead
of hashing edge tuples in inner loops.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.rrg import random_regular_graph
from repro.utils.rng import SeedLike

__all__ = ["Jellyfish"]


class Jellyfish:
    """A Jellyfish ``RRG(N, x, y)`` instance.

    Parameters
    ----------
    n_switches:
        Number of switches ``N``.
    ports:
        Ports per switch ``x``.
    uplinks:
        Ports per switch used for switch-to-switch links ``y``
        (``0 <= y <= min(x, N-1)``); each switch hosts ``x - y`` compute
        nodes.
    seed:
        Seed (or generator) for the random construction.
    adjacency:
        Optional pre-built adjacency lists (must be ``uplinks``-regular);
        when given, no random construction happens — used by tests and by
        experiments that re-load a saved topology.
    """

    def __init__(
        self,
        n_switches: int,
        ports: int,
        uplinks: int,
        seed: SeedLike = None,
        adjacency: Sequence[Sequence[int]] | None = None,
    ):
        if ports < uplinks:
            raise TopologyError(
                f"ports (x={ports}) must be >= uplinks (y={uplinks})"
            )
        if uplinks >= n_switches:
            raise TopologyError(
                f"uplinks (y={uplinks}) must be < number of switches (N={n_switches})"
            )
        self.n_switches = int(n_switches)
        self.ports = int(ports)
        self.uplinks = int(uplinks)
        self.hosts_per_switch = self.ports - self.uplinks
        self.n_hosts = self.n_switches * self.hosts_per_switch

        if adjacency is not None:
            adj = [sorted(int(v) for v in nbrs) for nbrs in adjacency]
            if len(adj) != self.n_switches:
                raise TopologyError(
                    f"adjacency has {len(adj)} switches, expected {self.n_switches}"
                )
            for u, nbrs in enumerate(adj):
                if len(nbrs) != self.uplinks:
                    raise TopologyError(
                        f"switch {u} has degree {len(nbrs)}, expected {self.uplinks}"
                    )
                for v in nbrs:
                    if not (0 <= v < self.n_switches) or v == u:
                        raise TopologyError(f"invalid neighbour {v} of switch {u}")
                    if u not in adj[v]:
                        raise TopologyError(f"edge ({u},{v}) is not symmetric")
            self.adjacency: List[List[int]] = adj
        else:
            self.adjacency = random_regular_graph(self.n_switches, self.uplinks, seed)

        # Directed link ids: switch->switch links first, then per-host
        # injection links (host -> switch), then ejection (switch -> host).
        self._link_id: Dict[Tuple[int, int], int] = {}
        links: List[Tuple[int, int]] = []
        for u in range(self.n_switches):
            for v in self.adjacency[u]:
                self._link_id[(u, v)] = len(links)
                links.append((u, v))
        self.n_switch_links = len(links)  # == N * y (directed)
        self.injection_link_base = self.n_switch_links
        self.ejection_link_base = self.n_switch_links + self.n_hosts
        self.n_links = self.n_switch_links + 2 * self.n_hosts
        self._links = links
        self._kernels = None

    # -------------------------------------------------------------- kernels
    @property
    def kernels(self):
        """Shared BFS kernels for the switch graph (built lazily, reused).

        The returned :class:`~repro.core.kernels.GraphKernels` carries the
        CSR export, the bitset neighbour masks, and the per-source level
        field cache every path query on this instance shares.  It also
        implements the sequence protocol, so it substitutes for
        ``self.adjacency`` anywhere an adjacency is accepted.
        """
        if self._kernels is None:
            # Imported here: repro.core packages pull in this module.
            from repro.core.kernels import GraphKernels

            self._kernels = GraphKernels(self.adjacency)
        return self._kernels

    # ------------------------------------------------------------------ ids
    def switch_of_host(self, host: int) -> int:
        """Switch that host ``host`` attaches to (linear layout)."""
        if not (0 <= host < self.n_hosts):
            raise TopologyError(f"host {host} out of range [0, {self.n_hosts})")
        return host // self.hosts_per_switch

    def hosts_of_switch(self, switch: int) -> range:
        """Hosts attached to ``switch``."""
        if not (0 <= switch < self.n_switches):
            raise TopologyError(f"switch {switch} out of range [0, {self.n_switches})")
        base = switch * self.hosts_per_switch
        return range(base, base + self.hosts_per_switch)

    # ---------------------------------------------------------------- links
    def link_id(self, u: int, v: int) -> int:
        """Id of the directed switch link ``u -> v``."""
        try:
            return self._link_id[(u, v)]
        except KeyError:
            raise TopologyError(f"no switch link {u} -> {v}") from None

    def injection_link(self, host: int) -> int:
        """Id of the host's injection link (host -> its switch)."""
        if not (0 <= host < self.n_hosts):
            raise TopologyError(f"host {host} out of range [0, {self.n_hosts})")
        return self.injection_link_base + host

    def ejection_link(self, host: int) -> int:
        """Id of the host's ejection link (its switch -> host)."""
        if not (0 <= host < self.n_hosts):
            raise TopologyError(f"host {host} out of range [0, {self.n_hosts})")
        return self.ejection_link_base + host

    def switch_links(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all directed switch links ``(u, v)`` in id order."""
        return iter(self._links)

    def path_link_ids(self, path: Sequence[int]) -> List[int]:
        """Directed switch-link ids along a switch path ``[s0, s1, ..., sm]``."""
        return [self._link_id[(path[i], path[i + 1])] for i in range(len(path) - 1)]

    # ---------------------------------------------------------------- misc
    def undirected_edges(self) -> List[Tuple[int, int]]:
        """All undirected switch edges as sorted ``(u, v)`` with ``u < v``."""
        return [(u, v) for (u, v) in self._links if u < v]

    def degree(self) -> int:
        """Switch-to-switch degree (``y``)."""
        return self.uplinks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Jellyfish(RRG(N={self.n_switches}, x={self.ports}, "
            f"y={self.uplinks}), hosts={self.n_hosts})"
        )
