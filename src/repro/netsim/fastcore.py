"""Array-native fast core of the flit-level simulator.

:class:`FastSimulator` is a drop-in engine for
:class:`~repro.netsim.simulator.Simulator` (selected by
``SimConfig.engine``, the default) that keeps the exact four-phase router
semantics — hop-indexed VC ladder, credit-based flow control, separable
round-robin output arbitration with input speedup — but holds all
per-packet and per-buffer state in preallocated flat lists instead of
Python objects:

- **structure-of-arrays packet store** — every :class:`Packet` field is a
  column indexed by a recycled packet id, so the hot loop never allocates
  or touches an object;
- **CSR route tables** — each distinct switch path is flattened once into
  parallel per-hop arrays (output port, downstream flat buffer index,
  directed link id), shared across every run on the same
  :class:`~repro.core.cache.PathCache`;
- **ring-buffer VC FIFOs** — one flat list of ``n_bufs * vc_buffer``
  slots with head/length columns replaces the per-buffer deques;
- **calendar queue** — arrivals always land exactly ``channel_latency``
  cycles ahead, so ``channel_latency + 1`` circular per-cycle buckets
  replace the global heap: O(arrivals) per cycle, no heap churn;
- **one launch path** — every mechanism, traced or not, launches in
  three steps per cycle: gather the launchers and their RNG bounds, one
  :func:`draw_batch` call, then pick every route.

The core reproduces the reference engine *exactly*: it draws the RNG in
the same order (per-mechanism path choice included), emits trace /
time-series records in the same order, and mirrors the path-cache
hit/miss counters — the cross-engine equivalence suite pins
byte-identical :class:`~repro.netsim.simulator.SimResult` samples and
telemetry artifacts for all six mechanisms.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.netsim.config import SimConfig
from repro.netsim.network import NetworkWiring
from repro.netsim.simulator import PatternTraffic, Simulator, UniformTraffic
from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.topology.jellyfish import Jellyfish
from repro.utils.rng import SeedLike

__all__ = ["FastSimulator", "draw_batch"]

Nodes = Tuple[int, ...]


def draw_batch(rng: np.random.Generator, bounds: List[int]) -> List[int]:
    """Exact replay of ``[int(rng.integers(r)) for r in bounds]``.

    numpy's ``Generator.integers`` with a bound below 2**32 samples by
    Lemire rejection on a 32-bit chunk stream: each 64-bit PCG word is
    split low half first, and an unused half persists across calls in
    the generator's ``has_uint32``/``uinteger`` buffer.  Replaying
    that algorithm over one ``random_raw`` batch produces the same
    values and leaves the generator in the same state (buffer
    included) at a third of the per-draw cost; the cross-engine
    equivalence suites (serial and batched) pin both.  Bounds of 1 draw
    nothing, exactly like the scalar call.
    """
    bg = rng.bit_generator
    st = bg.state
    has = 1 if st["has_uint32"] else 0
    b = np.array(bounds, dtype=np.uint64)
    draw_mask = b > np.uint64(1)
    need_total = int(draw_mask.sum())
    if need_total == 0:
        return [0] * len(bounds)
    need = need_total - has
    if need <= 0:
        # A single draw served from the buffered half-word: the
        # vectorized path has nothing to fetch, replay it scalar.
        return _draw_batch_slow(rng, bounds, [st["uinteger"]], False)
    words = bg.random_raw((need + 1) // 2)
    chunks = np.empty(has + 2 * len(words), dtype=np.uint64)
    if has:
        chunks[0] = st["uinteger"]
    chunks[has::2] = words & np.uint64(0xFFFFFFFF)
    chunks[has + 1 :: 2] = words >> np.uint64(32)
    rs = b[draw_mask] if need_total != len(bounds) else b
    m = chunks[:need_total] * rs
    t = (np.uint64(4294967296) - rs) % rs
    if ((m & np.uint64(0xFFFFFFFF)) < t).any():
        # A Lemire rejection (probability ~r/2**32 per draw): replay
        # the whole batch scalar over the already-fetched chunks.
        return _draw_batch_slow(rng, bounds, chunks.tolist(), True)
    st = bg.state  # re-read: random_raw advanced the counter
    st["has_uint32"] = 1 if need_total < len(chunks) else 0
    # numpy leaves the last buffered half in ``uinteger`` even after
    # consuming it; mirror that so states stay bit-equal.
    st["uinteger"] = int(chunks[-1])
    bg.state = st
    drawn = (m >> np.uint64(32)).tolist()
    if need_total == len(bounds):
        return drawn
    vals = [0] * len(bounds)
    vi = 0
    for i, r in enumerate(bounds):
        if r > 1:
            vals[i] = drawn[vi]
            vi += 1
    return vals


def _draw_batch_slow(
    rng: np.random.Generator, bounds: List[int], chunks: List[int],
    fetched: bool,
) -> List[int]:
    """Scalar Lemire replay over ``chunks`` (already fetched words).

    The exact algorithm ``Generator.integers`` runs, draw by draw;
    the vectorized :func:`draw_batch` delegates here when a rejection
    fires or the whole batch fits in the buffered half-word.
    """
    bg = rng.bit_generator
    vals = []
    append = vals.append
    n_chunks = len(chunks)
    ci = 0
    for r in bounds:
        if r <= 1:
            append(0)
            continue
        t = (4294967296 - r) % r
        while True:
            if ci == n_chunks:
                # A Lemire rejection overran the batch (probability
                # ~r/2**32 per draw) — extend one word at a time.
                fetched = True
                w = int(bg.random_raw())
                chunks.append(w & 0xFFFFFFFF)
                chunks.append(w >> 32)
                n_chunks += 2
            m = chunks[ci] * r
            ci += 1
            if (m & 0xFFFFFFFF) >= t:
                append(m >> 32)
                break
    st = bg.state
    st["has_uint32"] = 1 if ci < n_chunks else 0
    if fetched:
        # numpy leaves the last buffered half in ``uinteger`` even
        # after consuming it; mirror that so states stay bit-equal.
        st["uinteger"] = chunks[-1]
    bg.state = st
    return vals


#: Per-mechanism launch draw plan of the array engines: (draws per
#: multi-path launch, skip the draw for single-path pairs, bound offset).
#: ``random`` draws ``integers(k)`` even for a single-path pair (a bound
#: of 1 consumes nothing), ``ksp_ugal`` one non-minimal challenger index
#: (bound ``k - 1``), ``ksp_adaptive`` two distinct candidates (bounds
#: ``k`` and ``k - 1``).  Vanilla UGAL has no plan: it composes Valiant
#: routes through its mechanism object, which draws its own scalars.
_DRAW_PLAN: Dict[str, Tuple[int, bool, int]] = {
    "sp": (0, True, 0),
    "round_robin": (0, True, 0),
    "random": (1, False, 0),
    "ksp_ugal": (1, True, 1),
    "ksp_adaptive": (2, True, 0),
}


# Route pickers of the fast engine's launch.  A picker turns a multi-path
# pair record ``(k, rids, hops, links, rank)`` and the launch's drawn
# values ``vals[c:]`` into a route id.  ``occ`` is the link occupancy and
# ``est_first``/``cl`` the run's estimate kind and channel latency.

def _better(rec: tuple, i: int, j: int, occ, est_first: bool, cl: int) -> int:
    """Candidate with the lower latency estimate; ``i`` on ties.

    The ``"first"`` estimate is the first channel's queue times the hop
    count (UGAL-L); the ``"path"`` estimate is hops x channel latency
    plus the flits queued along the whole route.  Equal estimates go to
    the shorter route, then to ``i``.
    """
    hops, links = rec[2], rec[3]
    hi, hj = hops[i], hops[j]
    if est_first:
        ea = occ[links[i][0]] * hi
        eb = occ[links[j][0]] * hj
    else:
        ea = hi * cl
        for link in links[i]:
            ea += occ[link]
        eb = hj * cl
        for link in links[j]:
            eb += occ[link]
    if ea != eb:
        return i if ea < eb else j
    return i if hi <= hj else j


def pick_random(rec, vals, c, occ, est_first, cl) -> int:
    """Oblivious pick: the drawn candidate."""
    return rec[1][vals[c]]


def pick_ksp_ugal(rec, vals, c, occ, est_first, cl) -> int:
    """The shortest path against one drawn non-minimal challenger."""
    return rec[1][_better(rec, 0, 1 + vals[c], occ, est_first, cl)]


def pick_ksp_adaptive(rec, vals, c, occ, est_first, cl) -> int:
    """Two distinct drawn candidates, compared in canonical order."""
    i = vals[c]
    j = vals[c + 1]
    if j >= i:
        j += 1
    # Unbiased tie-break: canonical (length, nodes) order first.
    rank = rec[4]
    if rank[i] > rank[j]:
        i, j = j, i
    return rec[1][_better(rec, i, j, occ, est_first, cl)]


_PICKERS = {
    "random": pick_random,
    "ksp_ugal": pick_ksp_ugal,
    "ksp_adaptive": pick_ksp_adaptive,
}


class _RouteTables:
    """Per-cache CSR route core, independent of the VC count.

    A route is a switch path flattened to per-hop parallel arrays; the
    per-pair records additionally cache what the route pickers and the
    batched engine's pair rows need (hop counts, link-id tuples for
    occupancy estimates, the canonical tie-break rank).  The port
    mapping of a hop does not depend on how many VCs the run uses, so
    one core per :class:`~repro.core.cache.PathCache` serves every
    engine and every mechanism: the only VC-dependent column (the
    downstream flat buffer index) lives in thin per-``n_vcs``
    :class:`_FlatTables` views derived from ``rf_slot``/``rf_vc``.
    """

    __slots__ = (
        "wiring", "n_switches", "n_ports",
        "route_ids", "r_nodes", "r_off", "r_hops",
        "rf_out", "rf_slot", "rf_vc", "rf_link", "pair",
    )

    def __init__(self, wiring: NetworkWiring, n_switches: int):
        self.wiring = wiring
        self.n_switches = n_switches
        self.n_ports = wiring.n_ports
        self.route_ids: Dict[Nodes, int] = {}
        self.r_nodes: List[Nodes] = []
        self.r_off: List[int] = []    # offset into the rf_* arrays
        self.r_hops: List[int] = []   # switch-to-switch hop count
        self.rf_out: List[int] = []   # output port at hop i
        self.rf_slot: List[int] = []  # downstream (switch, input port) slot
        self.rf_vc: List[int] = []    # downstream VC (the VC ladder: i+1)
        self.rf_link: List[int] = []  # directed link id
        # src_sw * n_switches + dst_sw -> (k, rids, hops, links, rank);
        # the flat int key hashes cheaper than a tuple on the hot path.
        self.pair: Dict[int, tuple] = {}

    def add_route(self, nodes: Nodes) -> int:
        rid = self.route_ids.get(nodes)
        if rid is not None:
            return rid
        w = self.wiring
        port_of, peer, link_of = w.port_of, w.peer_port, w.link_of
        n_ports = self.n_ports
        out, slot, vc, lnk = self.rf_out, self.rf_slot, self.rf_vc, self.rf_link
        rid = len(self.r_off)
        self.r_off.append(len(out))
        self.r_hops.append(len(nodes) - 1)
        self.r_nodes.append(nodes)
        for i in range(len(nodes) - 1):
            u, v = nodes[i], nodes[i + 1]
            p = port_of[u][v]
            out.append(p)
            # A flit forwarded at hop i lands in the downstream switch's
            # (peer input port, VC i+1) buffer — the VC ladder.  The flat
            # buffer index is slot * n_vcs + vc; views bake in n_vcs.
            slot.append(v * n_ports + peer[u][p])
            vc.append(i + 1)
            lnk.append(link_of[u][p])
        self.route_ids[nodes] = rid
        return rid

    def pair_record(self, src_sw: int, dst_sw: int, ps) -> tuple:
        key = src_sw * self.n_switches + dst_sw
        rec = self.pair.get(key)
        if rec is None:
            rids = [self.add_route(p.nodes) for p in ps]
            hops = [p.hops for p in ps]
            links = [
                tuple(
                    self.rf_link[self.r_off[r]: self.r_off[r] + self.r_hops[r]]
                )
                for r in rids
            ]
            # Canonical (length, nodes) order of the candidates, for the
            # KSP-adaptive unbiased tie-break.
            order = sorted(
                range(len(rids)),
                key=lambda t: (len(ps[t].nodes), ps[t].nodes),
            )
            rank = [0] * len(rids)
            for m, t in enumerate(order):
                rank[t] = m
            rec = (ps.k, rids, hops, links, rank)
            self.pair[key] = rec
        return rec


class _FlatTables:
    """A per-``n_vcs`` view over a cache's shared :class:`_RouteTables`.

    Every column except ``rf_nxt`` (the downstream flat buffer index,
    which bakes in the VC stride) is a shared reference into the core —
    routes and pair records added through any view, any engine, any run
    are built exactly once per cache.  ``rf_nxt`` is derived as
    ``rf_slot * n_vcs + rf_vc`` and extended lazily when the core grows;
    hot loops hold the list object, which is append-only.
    """

    __slots__ = (
        "core", "wiring", "n_vcs", "stride_switch", "n_switches",
        "route_ids", "r_nodes", "r_off", "r_hops",
        "rf_out", "rf_nxt", "rf_link", "pair",
    )

    def __init__(self, core: _RouteTables, n_vcs: int, stride_switch: int):
        self.core = core
        self.wiring = core.wiring
        self.n_vcs = n_vcs
        self.stride_switch = stride_switch
        self.n_switches = core.n_switches
        self.route_ids = core.route_ids
        self.r_nodes = core.r_nodes
        self.r_off = core.r_off
        self.r_hops = core.r_hops
        self.rf_out = core.rf_out
        self.rf_link = core.rf_link
        self.pair = core.pair
        self.rf_nxt: List[int] = []   # downstream flat buffer index
        self._sync()

    def _sync(self) -> None:
        slot, vc = self.core.rf_slot, self.core.rf_vc
        nxt, n_vcs = self.rf_nxt, self.n_vcs
        for j in range(len(nxt), len(slot)):
            nxt.append(slot[j] * n_vcs + vc[j])

    def add_route(self, nodes: Nodes) -> int:
        rid = self.core.add_route(nodes)
        if len(self.rf_nxt) != len(self.core.rf_slot):
            self._sync()
        return rid

    def pair_record(self, src_sw: int, dst_sw: int, ps) -> tuple:
        rec = self.core.pair_record(src_sw, dst_sw, ps)
        if len(self.rf_nxt) != len(self.core.rf_slot):
            self._sync()
        return rec


def _route_core_for(paths: PathCache, wiring: NetworkWiring,
                    n_switches: int) -> _RouteTables:
    """The one shared CSR route core of ``paths``."""
    core = paths.__dict__.get("_route_core")
    if core is None:
        core = paths.__dict__["_route_core"] = _RouteTables(
            wiring, n_switches
        )
    return core


def _tables_for(paths: PathCache, wiring: NetworkWiring, n_vcs: int,
                stride_switch: int, n_switches: int) -> _FlatTables:
    """The route-table view of ``paths`` for one VC-stride layout."""
    tabs = paths.__dict__.get("_fastcore_tables")
    if tabs is None:
        tabs = paths.__dict__["_fastcore_tables"] = {}
    found = tabs.get(n_vcs)
    if found is None:
        core = _route_core_for(paths, wiring, n_switches)
        found = tabs[n_vcs] = _FlatTables(core, n_vcs, stride_switch)
    else:
        # A view for another VC count may have grown the shared core
        # since; a route found through the shared ``route_ids`` must
        # have its ``rf_nxt`` entries here too.
        found._sync()
    return found


class FastSimulator(Simulator):
    """The array-native engine (``SimConfig.engine == "fast"``).

    Inherits run control (warmup, sampling, windows, drain, metrics
    publication) from :class:`Simulator` and replaces the three per-cycle
    phases that dominate the wall clock.
    """

    engine_name = "fast"

    def __init__(
        self,
        topology: Jellyfish,
        paths: PathCache,
        mechanism: str,
        traffic: UniformTraffic | PatternTraffic,
        injection_rate: float,
        config: SimConfig = SimConfig(),
        seed: SeedLike = 0,
    ):
        super().__init__(
            topology, paths, mechanism, traffic, injection_rate, config, seed
        )
        n_bufs = topology.n_switches * self._stride_switch
        cap = config.vc_buffer
        self._cap = cap
        # Ring-buffer FIFOs: one flat slot array + head/length columns.
        self._fifo: List[int] = [0] * (n_bufs * cap)
        self._fhead: List[int] = [0] * n_bufs
        self._flen: List[int] = [0] * n_bufs
        # Head-of-line request memo per buffer: the head packet's output
        # port and downstream buffer (-1 for ejection), refreshed only
        # when the head changes — allocation then reads two columns
        # instead of re-deriving the request every cycle.
        self._req_out: List[int] = [0] * n_bufs
        self._req_nxt: List[int] = [0] * n_bufs
        self._req_link: List[int] = [0] * n_bufs
        # Input port of each flat buffer index (arbitration speedup test).
        self._inport: List[int] = [
            (f % self._stride_switch) // self.n_vcs for f in range(n_bufs)
        ]

        # Calendar queue: every arrival is scheduled exactly
        # channel_latency ahead, so latency+1 circular buckets suffice and
        # bucket append order reproduces the reference heap's pop order.
        self._calP = config.channel_latency + 1
        self._cal: List[List[int]] = [[] for _ in range(self._calP)]

        # Structure-of-arrays packet store (columns indexed by packet id,
        # ids recycled through a freelist).
        self._pk_rid: List[int] = []   # route id (CSR tables)
        self._pk_hop: List[int] = []   # current hop / VC index
        self._pk_t0: List[int] = []    # source-queue entry cycle
        self._pk_link: List[int] = []  # link last travelled (-1: from host)
        self._pk_dst: List[int] = []   # destination host
        self._pk_tr: List[int] = []    # flight-recorder id (-1: untraced)
        self._pk_dest: List[int] = []  # scheduled target buffer (-1: eject)
        # Source host; maintained only under flowstats capture (the only
        # reader), so the off path never grows the column.
        self._pk_src: List[int] = []
        self._pk_free: List[int] = []

        # Host lookup tables.
        n_hosts = topology.n_hosts
        wiring = self.wiring
        self._host_sw: List[int] = [int(x) for x in self._switch_of_host]
        self._host_inj: List[int] = [
            wiring.injection_port(h) for h in range(n_hosts)
        ]
        self._host_buf: List[int] = [
            self._host_sw[h] * self._stride_switch
            + self._host_inj[h] * self.n_vcs
            for h in range(n_hosts)
        ]
        self._eject_of: List[int] = [
            wiring.ejection_port(h) for h in range(n_hosts)
        ]

        self._t = _tables_for(
            paths, wiring, self.n_vcs, self._stride_switch,
            topology.n_switches,
        )
        self._n_sw = topology.n_switches

        # Conservation counters (drain polls in_flight every cycle).
        self._n_sourced = 0
        self._n_flying = 0
        self._n_buffered = 0

        # Measured link-flit tallies as a plain list on the hot path
        # (Simulator.run() converts when computing utilisation).
        self._link_flits = [0] * topology.n_switch_links

        # Allocation scratch, reused across switches and cycles: per-port
        # candidate lists plus the insertion order of requested ports.
        self._port_cands: List[List[int]] = [[] for _ in range(self.n_ports)]
        self._touched_ports: List[int] = []
        # Per-input-port grants this switch/cycle (input-speedup cap);
        # reset via the winner list instead of reallocating per switch.
        self._granted_in: List[int] = [0] * self.n_ports
        self._grant_ins: List[int] = []

        # Mechanisms without a draw plan (vanilla UGAL's composite
        # Valiant routes) choose through the mechanism object, which must
        # then see the live occupancy array.
        name = self.mechanism.name
        plan = _DRAW_PLAN.get(name)
        self._native = plan is not None
        self._plan = plan or (0, True, 0)
        self._pick = _PICKERS.get(name)
        self._occ = [0] * topology.n_links if self._native else self.occupancy
        self._est_first = config.adaptive_estimate == "first"
        self._cl = config.channel_latency
        self._rr_flow: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------- phases
    def _process_arrivals(self, now: int) -> None:
        bucket = self._cal[now % self._calP]
        if not bucket:
            return
        cfg = self.config
        tr = self._trace
        track = self._track_lat
        pk_dest, pk_t0 = self._pk_dest, self._pk_t0
        pk_tr, pk_dst = self._pk_tr, self._pk_dst
        pk_rid, pk_hop = self._pk_rid, self._pk_hop
        fifo, fhead, flen, cap = self._fifo, self._fhead, self._flen, self._cap
        req_out, req_nxt, req_link = self._req_out, self._req_nxt, self._req_link
        tables = self._t
        r_off, r_hops = tables.r_off, tables.r_hops
        rf_out, rf_nxt, rf_link = tables.rf_out, tables.rf_nxt, tables.rf_link
        eject_of = self._eject_of
        stride = self._stride_switch
        n_vcs = self.n_vcs
        nonempty = self.nonempty
        ms = self._measure_start
        mc = cfg.measure_cycles
        sc = cfg.sample_cycles
        sums, counts = self._sample_sums, self._sample_counts
        lats = self._latencies
        fs_on = self._fs is not None
        if fs_on:
            pk_src, fs_pairs, nh = self._pk_src, self._fs_pairs, self._fs_nh
        host_sw = self._host_sw
        freelist = self._pk_free
        delivered = 0
        enqueued = 0
        lat_total = 0
        for pid in bucket:
            idx = pk_dest[pid]
            if idx < 0:
                # Ejection: the packet reached its host.
                delivered += 1
                lat = now - pk_t0[pid]
                if track:
                    lat_total += lat
                t = now - ms
                if 0 <= t < mc:
                    s = t // sc
                    sums[s] += lat
                    counts[s] += 1
                    lats.append(lat)
                    if fs_on:
                        fs_pairs.append(pk_src[pid] * nh + pk_dst[pid])
                if tr is not None and pk_tr[pid] >= 0:
                    tr.event(
                        pk_tr[pid], self._trace_run, obs_trace.EV_EJECT,
                        now, switch=host_sw[pk_dst[pid]],
                    )
                    tr.finish(pk_tr[pid], now)
                freelist.append(pid)
            else:
                length = flen[idx]
                pos = fhead[idx] + length
                if pos >= cap:
                    pos -= cap
                fifo[idx * cap + pos] = pid
                flen[idx] = length + 1
                enqueued += 1
                if not length:
                    nonempty[idx // stride].add(idx)
                    rid = pk_rid[pid]
                    hop = pk_hop[pid]
                    if hop < r_hops[rid]:
                        base = r_off[rid] + hop
                        req_out[idx] = rf_out[base]
                        req_nxt[idx] = rf_nxt[base]
                        req_link[idx] = rf_link[base]
                    else:
                        req_out[idx] = eject_of[pk_dst[pid]]
                        req_nxt[idx] = -1
                if tr is not None and pk_tr[pid] >= 0:
                    rem = idx % stride
                    tr.event(
                        pk_tr[pid], self._trace_run,
                        obs_trace.EV_HOP_ENQUEUE, now, switch=idx // stride,
                        port=rem // n_vcs, vc=rem % n_vcs,
                    )
        n = len(bucket)
        bucket.clear()
        self.delivered += delivered
        self._n_flying -= n
        self._n_buffered += enqueued
        if track:
            self._lat_total += lat_total

    def _inject(self, now: int) -> None:
        before = self.injected
        super()._inject(now)
        self._n_sourced += self.injected - before

    def _launch_from_sources(self, now: int) -> None:
        """Launch every source queue's head packet that has credit.

        A gather pass and a pick pass, both in ``source_q`` insertion
        order (the order the reference engine launches in), around one
        draw.  The gather counts credit stalls, builds a launcher's pair
        record on first use (through the real ``paths.get``, which counts
        that launch's hit or miss) and appends the launch's RNG bounds
        per the draw plan.  One :func:`draw_batch` then replays the
        scalar ``Generator.integers`` calls value for value (a scalar
        call costs ~1.4us in dispatch alone), and the pick pass chooses
        every route and writes the packet store.  Launches only take
        injection credits, so link occupancy is read-only during the
        phase and picking after the gather sees the same estimates as
        picking inline.  Under tracing, stalled hosts stay in the
        launcher list so their stall events keep their place in the
        reference event order.
        """
        if not self._n_sourced:
            return
        tr = self._trace
        tracing = tr is not None
        free = self.free
        host_buf, host_sw, host_inj = self._host_buf, self._host_sw, self._host_inj
        tables = self._t
        pair_get = tables.pair.get
        n_sw = self._n_sw
        paths = self.paths
        native = self._native
        ndraw, skip_k1, bnd_off = self._plan
        ls_on = self._ls is not None
        if ls_on:
            ls_fwd = self._ls_fwd
            ls_stall = self._ls_stall
            inj_base = self._inj_link_base
        launchers = []
        lapp = launchers.append
        bounds: List[int] = []
        bapp = bounds.append
        stalls = 0
        cold = 0
        for h, q in self.source_q.items():
            if not q:
                continue
            if free[host_buf[h]] <= 0:
                stalls += 1
                if ls_on:
                    ls_stall[inj_base + h] += 1
                if tracing:
                    lapp((h, q, None))
                continue
            if native:
                sw = host_sw[h]
                dsw = host_sw[q[0][1]]
                rec = pair_get(sw * n_sw + dsw)
                if rec is None:
                    rec = tables.pair_record(sw, dsw, paths.get(sw, dsw))
                    cold += 1
                k = rec[0]
                if k > 1:
                    if ndraw == 2:
                        bapp(k)
                        bapp(k - 1)
                    elif ndraw:
                        bapp(k - bnd_off)
                elif not skip_k1:
                    bapp(1)
            else:
                rec = ()  # vanilla UGAL: no record, no bounds
            lapp((h, q, rec))
        self.credit_stalls += stalls
        if not launchers:
            return
        launched = len(launchers) - stalls if tracing else len(launchers)
        # Each launch with a warm record mirrors the hit the reference's
        # per-launch ``paths.get`` counts; a cold one counted its own.
        hits = launched - cold if native else 0
        if hits:
            paths.hits += hits
            reg = metrics._active
            if reg is not None:
                reg.counter("core.cache.hit").inc(hits)
        vals = draw_batch(self.rng, bounds) if bounds else ()

        k1_draw = 0 if skip_k1 else 1
        pick = self._pick
        rr_flow = (
            self._rr_flow if self.mechanism.name == "round_robin" else None
        )
        choose = None if native else self.mechanism.choose
        occ, est_first, cl = self._occ, self._est_first, self._cl
        pk_rid, pk_hop, pk_t0 = self._pk_rid, self._pk_hop, self._pk_t0
        pk_link, pk_dst = self._pk_link, self._pk_dst
        pk_tr, pk_dest = self._pk_tr, self._pk_dest
        freelist = self._pk_free
        bucket = self._cal[(now + cl) % self._calP]
        fs_on = self._fs is not None
        pk_src = self._pk_src
        c = 0
        for h, q, rec in launchers:
            if rec is None:
                if q[0][-1] >= 0:
                    tr.event(
                        q[0][-1], self._trace_run, obs_trace.EV_CREDIT_STALL,
                        now, switch=host_sw[h], port=host_inj[h], vc=0,
                    )
                continue
            if tracing:
                t_create, dst, uid = q.popleft()
            else:
                t_create, dst = q.popleft()
                uid = -1
            if pick is not None:
                if rec[0] > 1:
                    rid = pick(rec, vals, c, occ, est_first, cl)
                    c += ndraw
                else:
                    rid = rec[1][0]
                    c += k1_draw
            elif rr_flow is not None:
                key = (h, dst)
                i = rr_flow.get(key, 0)
                rr_flow[key] = i + 1
                rid = rec[1][i % rec[0]]
            elif choose is None:
                rid = rec[1][0]
            else:
                nodes = tuple(choose(h, dst, host_sw[h], host_sw[dst]))
                rid = tables.route_ids.get(nodes)
                if rid is None:
                    rid = tables.add_route(nodes)
            idx = host_buf[h]
            if freelist:
                pid = freelist.pop()
                pk_rid[pid] = rid
                pk_hop[pid] = 0
                pk_t0[pid] = t_create
                pk_link[pid] = -1
                pk_dst[pid] = dst
                pk_tr[pid] = uid
                pk_dest[pid] = idx
                if fs_on:
                    pk_src[pid] = h
            else:
                pid = len(pk_rid)
                pk_rid.append(rid)
                pk_hop.append(0)
                pk_t0.append(t_create)
                pk_link.append(-1)
                pk_dst.append(dst)
                pk_tr.append(uid)
                pk_dest.append(idx)
                if fs_on:
                    pk_src.append(h)
            if uid >= 0:
                sw = host_sw[h]
                nodes = tables.r_nodes[rid]
                idx_map = paths.path_index_map(sw, host_sw[dst])
                tr.set_route(uid, idx_map.get(nodes, -1), nodes, now)
                tr.event(
                    uid, self._trace_run, obs_trace.EV_VC_ALLOC, now,
                    switch=sw, port=host_inj[h], vc=0,
                )
            free[idx] -= 1
            if ls_on:
                ls_fwd[inj_base + h] += 1
            bucket.append(pid)
        self._n_flying += launched
        self._n_sourced -= launched

    def _allocate(self, now: int) -> None:
        """Separable allocation; flight-recorder events only when tracing."""
        cfg = self.config
        free = self.free
        rr_ptr = self.rr_ptr
        stride = self._stride_switch
        n_ports = self.n_ports
        speedup = cfg.input_speedup
        bucket = self._cal[(now + self._cl) % self._calP]
        fifo, fhead, flen, cap = self._fifo, self._fhead, self._flen, self._cap
        req_out, req_nxt, req_link = self._req_out, self._req_nxt, self._req_link
        inport = self._inport
        pk_rid, pk_hop, pk_link = self._pk_rid, self._pk_hop, self._pk_link
        pk_dest, pk_tr, pk_dst = self._pk_dest, self._pk_tr, self._pk_dst
        tables = self._t
        r_off, r_hops = tables.r_off, tables.r_hops
        rf_out, rf_nxt, rf_link = tables.rf_out, tables.rf_nxt, tables.rf_link
        eject_of = self._eject_of
        occ = self._occ
        link_flits = self._link_flits
        ts_links = self._ts_link_flits if self._ts is not None else None
        if self._ls is not None:
            ls_fwd = self._ls_fwd
            ls_stall = self._ls_stall
            ej_base = self._ej_link_base
        else:
            ls_fwd = ls_stall = None
        tr = self._trace
        measuring = now >= self._measure_start
        stalls = 0
        forwarded = 0
        granted_total = 0
        pbuf = self._port_cands
        touched = self._touched_ports
        gin = self._granted_in
        gwin = self._grant_ins
        for switch, active in enumerate(self.nonempty):
            if not active:
                continue
            base = switch * stride
            rr_base = switch * n_ports
            # Gather head-of-line requests per output port, skipping flits
            # whose downstream buffer has no credit (sorted buffer order,
            # matching the reference engine's canonical iteration).  The
            # per-port candidate lists and the touched-port order are
            # reused scratch (cleared before leaving the switch).
            for fi in (sorted(active) if len(active) > 1 else active):
                nxt = req_nxt[fi]
                if nxt >= 0 and free[nxt] <= 0:
                    stalls += 1
                    if ls_stall is not None:
                        ls_stall[req_link[fi]] += 1
                    if tr is not None:
                        pid = fifo[fi * cap + fhead[fi]]
                        if pk_tr[pid] >= 0:
                            tr.event(
                                pk_tr[pid], self._trace_run,
                                obs_trace.EV_CREDIT_STALL, now, switch=switch,
                                port=req_out[fi], vc=pk_hop[pid],
                            )
                    continue
                out_port = req_out[fi]
                cands = pbuf[out_port]
                if not cands:
                    touched.append(out_port)
                cands.append(fi)

            if not touched:
                continue
            for out_port in touched:
                gathered = cands = pbuf[out_port]
                # Rotating-priority (round-robin) arbitration per output.
                rr_key = rr_base + out_port
                ptr = rr_ptr[rr_key]
                if len(cands) > 1 and ptr:
                    # cands was gathered in ascending flat-index order
                    # within this switch, so rotating at the pointer is
                    # the same as sorting by (fi - ptr) % stride.
                    cut = bisect_left(cands, base + ptr)
                    if 0 < cut < len(cands):
                        cands = cands[cut:] + cands[:cut]
                winner = -1
                for fi in cands:
                    in_port = inport[fi]
                    if gin[in_port] >= speedup:
                        continue
                    winner = fi
                    break
                gathered.clear()
                if winner < 0:
                    continue
                gin[in_port] += 1
                gwin.append(in_port)
                rr_ptr[rr_key] = winner - base + 1

                # The granted flit's own request, before the memo is
                # refreshed for the buffer's next head.
                tgt = req_nxt[winner]
                wlink = req_link[winner]
                head = fhead[winner]
                pid = fifo[winner * cap + head]
                length = flen[winner] - 1
                flen[winner] = length
                head += 1
                if head == cap:
                    head = 0
                fhead[winner] = head
                if length:
                    # Refresh the head-of-line request memo for the new head.
                    npid = fifo[winner * cap + head]
                    nrid = pk_rid[npid]
                    nhop = pk_hop[npid]
                    if nhop < r_hops[nrid]:
                        nbase = r_off[nrid] + nhop
                        req_out[winner] = rf_out[nbase]
                        req_nxt[winner] = rf_nxt[nbase]
                        req_link[winner] = rf_link[nbase]
                    else:
                        req_out[winner] = eject_of[pk_dst[npid]]
                        req_nxt[winner] = -1
                else:
                    active.discard(winner)
                free[winner] += 1
                granted_total += 1
                # No need to clear pk_link here: the forward branch
                # overwrites it and launch resets it on packet reuse.
                in_link = pk_link[pid]
                if in_link >= 0:
                    occ[in_link] -= 1

                if tgt < 0:
                    # Ejection to the destination host.
                    if ls_fwd is not None:
                        ls_fwd[ej_base + pk_dst[pid]] += 1
                    if tr is not None and pk_tr[pid] >= 0:
                        tr.event(
                            pk_tr[pid], self._trace_run,
                            obs_trace.EV_HOP_DEPART, now, switch=switch,
                            port=out_port, vc=pk_hop[pid],
                        )
                    pk_dest[pid] = -1
                    bucket.append(pid)
                else:
                    free[tgt] -= 1
                    occ[wlink] += 1
                    forwarded += 1
                    if measuring:
                        link_flits[wlink] += 1
                    if ts_links is not None:
                        ts_links[wlink] += 1
                    if ls_fwd is not None:
                        ls_fwd[wlink] += 1
                    if tr is not None and pk_tr[pid] >= 0:
                        tr.event(
                            pk_tr[pid], self._trace_run,
                            obs_trace.EV_HOP_DEPART, now, switch=switch,
                            port=out_port, vc=pk_hop[pid], link=wlink,
                        )
                    pk_link[pid] = wlink
                    pk_hop[pid] += 1
                    pk_dest[pid] = tgt
                    bucket.append(pid)
            touched.clear()
            if gwin:
                for ip in gwin:
                    gin[ip] = 0
                gwin.clear()
        self.credit_stalls += stalls
        self.flits_forwarded += forwarded
        self._n_flying += granted_total
        self._n_buffered -= granted_total

    # ---------------------------------------------------------------- run
    def _occupancy_view(self):
        """Linkstate peak reset reads the live hot-path occupancy list."""
        return self._occ

    def _sync_occupancy(self) -> None:
        """Mirror the hot-path occupancy list into the public array."""
        if self._occ is not self.occupancy:
            self.occupancy[:] = self._occ

    def run(self):
        try:
            return super().run()
        finally:
            self._sync_occupancy()

    def drain(self) -> int:
        try:
            return super().drain()
        finally:
            self._sync_occupancy()

    # ------------------------------------------------------- diagnostics
    def in_flight(self) -> int:
        """Packets inside the network or its queues (conservation checks)."""
        return self._n_buffered + self._n_flying + self._n_sourced
