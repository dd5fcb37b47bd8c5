"""The cycle-driven flit-level simulator.

One :class:`Simulator` instance runs one traffic condition at one injection
rate and reports the paper's Booksim statistics: per-sample average packet
latency, accepted throughput, and the saturation flag.

Router model (single-flit packets):

- every switch input port has one FIFO per virtual channel; a packet at
  switch-hop ``h`` occupies VC ``h``, so channel dependencies only ever
  climb the VC ladder and the network is deadlock-free for any loop-free
  source route (the paper's "increase the VC every hop" scheme);
- credit-based flow control: a flit leaves a router only when the
  downstream ``(input port, VC)`` buffer is guaranteed to have a slot by
  the time it lands;
- each output port launches at most one flit per cycle onto its channel
  (links run at line rate) while each input port may forward up to
  ``input_speedup`` flits per cycle — the speedup-2 crossbar of the paper's
  configuration;
- output arbitration is separable round-robin, rotating per output port;
- channels are ideal pipelines of ``channel_latency`` cycles, including
  host injection/ejection links;
- hosts have unbounded source queues (latency counts from source-queue
  entry, so saturated runs show the expected latency blow-up).

Per-link counts: every engine keeps two cumulative counters per link
(switch links, then injection, then ejection links), counted from cycle
0 whatever recorders are on — flits sent onto the link and credit stalls
waiting for it.  Each forward and each stall bumps one of them once.
Link utilisation is their switch-link slice at the end of the run minus
at the end of warmup; the ``flits_forwarded`` / ``credit_stalls`` totals
are their sums; time-series and link-state windows are differences
between two flushes, worked out for one lane or N by :class:`WindowRows`.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ConfigurationError, SimulationError, TrafficError
from repro.netsim.config import SimConfig
from repro.netsim.stats import latency_percentiles, stamp_latency_gauges
from repro.obs import flowstats as obs_flowstats
from repro.obs import linkstate as obs_linkstate
from repro.obs import metrics
from repro.obs import timeseries as obs_timeseries
from repro.obs import trace as obs_trace
from repro.netsim.mechanisms import RoutingMechanism, make_mechanism
from repro.netsim.network import NetworkWiring
from repro.netsim.packet import Packet
from repro.topology.jellyfish import Jellyfish
from repro.traffic.patterns import Pattern
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["UniformTraffic", "PatternTraffic", "SimResult", "Simulator"]


class UniformTraffic:
    """Uniform-random traffic: each packet draws a fresh destination."""

    def __init__(self, n_hosts: int):
        if n_hosts < 2:
            raise TrafficError("uniform traffic needs at least 2 hosts")
        self.n_hosts = n_hosts

    def sources(self) -> np.ndarray:
        return np.arange(self.n_hosts, dtype=np.int64)

    def dest(self, src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(self.n_hosts - 1))
        return d if d < src else d + 1

    def dests(self, srcs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Batched :meth:`dest`: one vectorized draw for a whole cycle."""
        d = rng.integers(self.n_hosts - 1, size=len(srcs))
        return d + (d >= srcs)

    def switch_pairs(self, topology: Jellyfish) -> List[Tuple[int, int]]:
        n = topology.n_switches
        return [(s, d) for s in range(n) for d in range(n) if s != d]


class PatternTraffic:
    """Static-pattern traffic: each source's destinations are fixed.

    Sources with several flows (e.g. Random(X)) pick uniformly among their
    destinations per packet; hosts without flows do not inject.
    """

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        self._dests: Dict[int, List[int]] = {}
        for s, d in pattern.flows:
            self._dests.setdefault(s, []).append(d)
        if not self._dests:
            raise TrafficError("pattern has no flows")
        # Flattened destination lists indexed by source host, so a whole
        # cycle's destinations come out of one vectorized draw.
        n = pattern.n_hosts
        self._counts = np.zeros(n, dtype=np.int64)
        self._offsets = np.zeros(n, dtype=np.int64)
        flat: List[int] = []
        for h in sorted(self._dests):
            self._offsets[h] = len(flat)
            self._counts[h] = len(self._dests[h])
            flat.extend(self._dests[h])
        self._flat = np.asarray(flat, dtype=np.int64)

    def sources(self) -> np.ndarray:
        return np.asarray(sorted(self._dests), dtype=np.int64)

    def dest(self, src: int, rng: np.random.Generator) -> int:
        dests = self._dests[src]
        if len(dests) == 1:
            return dests[0]
        return dests[int(rng.integers(len(dests)))]

    def dests(self, srcs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Batched :meth:`dest` for sources drawn from :meth:`sources`."""
        counts = self._counts[srcs]
        idx = rng.integers(counts)  # per-element upper bounds
        return self._flat[self._offsets[srcs] + idx]

    def switch_pairs(self, topology: Jellyfish) -> List[Tuple[int, int]]:
        pairs = {
            (topology.switch_of_host(s), topology.switch_of_host(d))
            for s, d in self.pattern.flows
        }
        return sorted(pairs)


@dataclass(frozen=True)
class SimResult:
    """Statistics of one simulation run.

    ``sample_latencies`` holds the mean packet latency of each of the
    run's ``config.n_samples`` samples, which the saturation test
    inspects; a ``nan`` entry means the sample delivered nothing (a fully
    jammed network, also treated as saturated).
    """

    injection_rate: float
    injected: int
    delivered: int
    measured_delivered: int
    mean_latency: float
    sample_latencies: Tuple[float, ...]
    saturated: bool
    accepted_throughput: float
    n_active_hosts: int
    latency_p50: float
    latency_p99: float
    max_link_utilisation: float
    mean_link_utilisation: float
    config: SimConfig = field(repr=False)


# ------------------------------------------------------------ run record
# Every engine keeps a run's record through the three functions and the
# window rows below, so the record cannot differ between engines.  The
# serial engines register at construction, record window rows live and
# build and publish the result at the end of run(); the batched engine
# buffers each lane's rows and runs the three functions for each lane.


def register_run(topology, config, scheme, mechanism, rate, ts, ls, fs):
    """Register one run with the time-series, link-state and flow recorders
    (each ``None`` when off); returns the three run ids (-1 when off).

    Each ``.npz`` stores the metadata as JSON in insertion order, so the
    key order here is part of the artifact bytes.
    """
    head = dict(scheme=scheme, mechanism=mechanism, rate=rate,
                n_hosts=topology.n_hosts)
    tail = dict(warmup_cycles=config.warmup_cycles,
                channel_latency=config.channel_latency)
    ts_run = ls_run = fs_run = -1
    if ts is not None:
        ts_run = ts.begin_run(**head, **tail)
    if ls is not None:
        ls_run = ls.begin_run(**head, n_links=topology.n_links, **tail)
        ep = obs_linkstate.link_endpoints(topology)
        ls.set_link_endpoints(ep["link_src"], ep["link_dst"])
    if fs is not None:
        n = topology.n_hosts
        fs_run = fs.begin_run(**head, n_pairs=n * n,
                              n_bins=obs_flowstats.latency_bins(config), **tail)
        ep = obs_flowstats.pair_endpoints(n)
        fs.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])
    return ts_run, ls_run, fs_run


def build_result(config, rate, injected, delivered, sample_sums, sample_counts,
                 latencies, link_flits, n_active_hosts) -> SimResult:
    """A run's :class:`SimResult` from its tallies.

    ``sample_sums`` / ``sample_counts`` hold each measured sample's
    latency sum and delivery count, ``latencies`` every measured packet's
    latency and ``link_flits`` the flits launched onto each switch link
    while measuring.
    """
    samples = tuple(
        s / c if c else float("nan")
        for s, c in zip(sample_sums, sample_counts)
    )
    measured = sum(sample_counts)
    measured_cycles = config.measure_cycles
    saturated = any(
        (s != s) or s > config.saturation_latency for s in samples
    )
    mean_latency = sum(sample_sums) / measured if measured else float("nan")
    p50, p99 = latency_percentiles(latencies)
    util = np.asarray(link_flits) / measured_cycles
    active = max(1, n_active_hosts)
    return SimResult(
        injection_rate=rate,
        injected=injected,
        delivered=delivered,
        measured_delivered=measured,
        mean_latency=mean_latency,
        sample_latencies=samples,
        saturated=saturated,
        accepted_throughput=measured / (active * measured_cycles),
        n_active_hosts=n_active_hosts,
        latency_p50=p50,
        latency_p99=p99,
        max_link_utilisation=float(util.max()) if util.size else 0.0,
        mean_link_utilisation=float(util.mean()) if util.size else 0.0,
        config=config,
    )


def publish_run(reg, result: SimResult, engine, scheme, cycles_per_sec, counts,
                occupancy_samples, link_flits) -> None:
    """Publish one run to the metrics registry (no-op when ``None``).

    ``counts`` is the run's (injected, delivered, forwarded, credit
    stalls).  The per-directed-link flit array is keyed by the
    path-selection scheme name, so one experiment that sweeps several
    schemes ends up with one aggregate utilization array per scheme — the
    raw material of the KSP-versus-rKSP link-load-imbalance report.
    """
    if reg is None:
        return
    reg.counter("netsim.runs").inc()
    # Engine provenance + wall-clock throughput, keyed by engine name so
    # cross-engine manifests are distinguishable (compare-runs refuses to
    # gate timings across different engines).  The gauge merges by max:
    # it reports the run's peak cycles/sec per engine.
    reg.counter(f"netsim.engine_runs/{engine}").inc()
    if cycles_per_sec:
        reg.gauge(f"netsim.cycles_per_sec/{engine}").set(cycles_per_sec)
    for name, n in zip(
        ("injected", "delivered", "flits_forwarded", "credit_stalls"), counts
    ):
        reg.counter(f"netsim.{name}").inc(n)
    occupancy = reg.histogram("netsim.vc_occupancy")
    for sample in occupancy_samples:
        occupancy.observe(sample)
    reg.array(f"netsim.link_flits/{scheme}", len(link_flits)).add(link_flits)
    stamp_latency_gauges(
        reg, result.latency_p50, result.latency_p99, result.mean_latency
    )


class WindowRows:
    """One capture layer's window rows, for one lane or for N.

    A window's row is the difference of the run's counts between two
    flushes: packets injected and delivered, their latency total (kept
    under the time series only) and the two per-link counters.  ``next``
    is the cycle the open window closes at; the shared cycle loop chunks
    itself there.
    """

    __slots__ = ("linkstate", "window", "start", "next", "_last")

    def __init__(self, window: int, linkstate: bool, counts: tuple):
        self.linkstate = linkstate
        self.window = window
        self.start = 0
        self.next = window
        self._last = counts

    def rows(self, now: int, counts: tuple, n_sl: int, extra) -> List[dict]:
        """The ``record_window`` rows covering ``[start, now)``, one per lane.

        ``counts`` are the run's counts now, in fresh arrays: injected,
        delivered and latency total, each shaped ``(lanes,)``, then the
        flits sent and the credit stalls per link, each ``(lanes,
        n_links)`` with the ``n_sl`` switch links first.  ``extra`` is the
        buffer occupancy per lane (time series) or the running peak
        occupancy per link of every lane (link state).  An empty window
        gives no rows and leaves the window open.
        """
        cycles = now - self.start
        if cycles <= 0:
            return []
        inj, dlv, lat, fwd, stl = (c - p for c, p in zip(counts, self._last))
        start = self.start
        self._last = counts
        self.start = now
        lanes = range(len(fwd))
        if self.linkstate:
            # A copy: the engine resets the running peak in place next.
            peak = np.array(extra, dtype=np.int64).reshape(fwd.shape)
            return [
                dict(start=start, cycles=cycles, forwarded=fwd[i],
                     credit_stalls=stl[i], peak_occupancy=peak[i])
                for i in lanes
            ]
        links = fwd[:, :n_sl].copy()
        sent = links.sum(axis=1)
        stalls = stl.sum(axis=1)
        return [
            dict(start=start, cycles=cycles, injected=int(inj[i]),
                 ejected=int(dlv[i]), lat_sum=int(lat[i]),
                 credit_stalls=int(stalls[i]), forwarded=int(sent[i]),
                 occupancy=int(extra[i]), link_flits=links[i])
            for i in lanes
        ]


class Simulator:
    """One flit-level run.

    Parameters
    ----------
    topology:
        The Jellyfish under test.
    paths:
        PathCache of the path-selection scheme (shared across runs to
        amortise Yen's algorithm).
    mechanism:
        Routing-mechanism registry name (see
        :data:`repro.netsim.mechanisms.MECHANISMS`).
    traffic:
        :class:`UniformTraffic` or :class:`PatternTraffic`.
    injection_rate:
        Bernoulli flit-injection probability per host per cycle.
    config / seed:
        Simulator parameters and the run's random stream.

    ``config.engine`` selects the core: constructing :class:`Simulator`
    with the default ``engine="fast"`` transparently builds the
    array-native :class:`~repro.netsim.fastcore.FastSimulator`;
    ``engine="reference"`` runs this implementation.  Both cores draw the
    RNG in the same order and produce byte-identical results.
    """

    #: Which core this class implements (manifests record it per run).
    engine_name = "reference"

    def __new__(
        cls,
        topology=None,
        paths=None,
        mechanism=None,
        traffic=None,
        injection_rate=None,
        config: SimConfig = SimConfig(),
        seed: SeedLike = 0,
    ):
        if cls is Simulator and getattr(config, "engine", "fast") == "fast":
            from repro.netsim.fastcore import FastSimulator

            return object.__new__(FastSimulator)
        return object.__new__(cls)

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
        if not (0.0 < injection_rate <= 1.0):
            raise ConfigurationError(
                f"injection_rate must be in (0, 1], got {injection_rate}"
            )
        self.topology = topology
        self.config = config
        self.rate = float(injection_rate)
        self.traffic = traffic
        self.rng = ensure_rng(seed)
        self.wiring = NetworkWiring(topology)

        # Warm the path cache for every switch pair the traffic can use, so
        # the per-cycle hot path never runs Yen's algorithm.
        paths.precompute(traffic.switch_pairs(topology))
        self.paths = paths

        self.occupancy = np.zeros(topology.n_links, dtype=np.int64)
        self.mechanism: RoutingMechanism = make_mechanism(
            mechanism,
            self.wiring,
            paths,
            self.occupancy,
            self.rng,
            estimate=config.adaptive_estimate,
            channel_latency=config.channel_latency,
        )

        # Longest resident path anywhere in the cache state (dict and
        # arena) — arena-resident pairs size the VC ladder exactly as
        # dict-resident ones do.
        self.n_vcs = max(
            paths.max_hops(), self.mechanism.max_route_hops()
        ) + 1

        n_sw = topology.n_switches
        self.n_ports = self.wiring.n_ports
        self._stride_port = self.n_vcs
        self._stride_switch = self.n_ports * self.n_vcs
        n_bufs = n_sw * self._stride_switch
        self.free: List[int] = [config.vc_buffer] * n_bufs
        self.nonempty: List[set] = [set() for _ in range(n_sw)]
        self.rr_ptr: List[int] = [0] * (n_sw * self.n_ports)

        self.source_q: Dict[int, deque] = {}
        self.active_hosts = traffic.sources()
        self._switch_of_host = np.asarray(
            [topology.switch_of_host(int(h)) for h in range(topology.n_hosts)],
            dtype=np.int64,
        )

        # statistics
        self.injected = 0
        self.delivered = 0
        self._measure_start = config.warmup_cycles
        self._sample_sums = [0.0] * config.n_samples
        self._sample_counts = [0] * config.n_samples
        self._latencies: List[int] = []
        # The run's two per-link counters (see the module docstring):
        # flits sent onto each link and credit stalls waiting for it.
        self._n_sl = topology.n_switch_links
        self._inj_link_base = topology.injection_link_base
        self._ej_link_base = topology.ejection_link_base
        self._link_fwd: List[int] = [0] * topology.n_links
        self._link_stall: List[int] = [0] * topology.n_links
        self._occupancy_samples: List[int] = []

        # Capture recorders (each off by default; the active recorders are
        # fixed at construction, so hot paths only test one local
        # reference).  The time-series, link-state and flow recorders
        # register the run here; the flight recorder only traces serial
        # runs, so it registers on its own.
        self._scheme = getattr(paths.selector, "name", "unknown")
        self._ts = obs_timeseries.active()
        self._ls = obs_linkstate.active()
        self._fs = obs_flowstats.active()
        self._ts_run, self._ls_run, self._fs_run = register_run(
            topology, config, self._scheme, mechanism, self.rate,
            self._ts, self._ls, self._fs,
        )
        tr = obs_trace.active()
        self._trace = tr
        self._trace_run = -1
        if tr is not None:
            self._trace_run = tr.begin_run(
                scheme=self._scheme,
                mechanism=mechanism,
                rate=self.rate,
                channel_latency=config.channel_latency,
                n_hosts=topology.n_hosts,
            )
            # Warm the per-pair {path nodes -> PathSet index} maps now, so
            # traced packets never rebuild dicts on the launch path (the
            # maps are memoised on the cache and shared across runs).
            for s, d in traffic.switch_pairs(topology):
                paths.path_index_map(s, d)

        # Window rows of the time series and the link state.  Cumulative
        # ejection latency is tracked only for the time series' per-window
        # means (off by default).
        self._track_lat = self._ts is not None
        self._lat_total = 0
        self._end_cycle = config.total_cycles
        self._windows = [
            WindowRows(rec.window, rec is self._ls, self._counts())
            for rec in (self._ts, self._ls) if rec is not None
        ]
        # Link-state peak occupancy is an end-of-cycle maximum (updated
        # once per cycle in _advance), not a grant-time one: per-grant
        # occupancy reads depend on within-cycle switch order, which the
        # batched engine's vectorized grant pass cannot replay.
        self._ls_peak = (
            np.zeros(topology.n_links, dtype=np.int64)
            if self._ls is not None else None
        )

        # Per-(src,dst) flows.  The hot path only appends the ejected
        # packet's pair id next to its latency; the per-pair tally happens
        # once at the end of run() from the two aligned lists.
        self._fs_nh = topology.n_hosts
        self._fs_pairs: List[int] = []
        self._init_core()

    def _init_core(self) -> None:
        """Per-buffer packet queues and the arrival heap of this engine
        (the fast core builds its ring buffers and calendar queue
        instead)."""
        self.in_q: List[deque] = [deque() for _ in range(len(self.free))]
        self._arrivals: list = []  # heap of (time, seq, flat_idx|-1, packet)
        self._seq = 0
        # Route-port tuples are pure functions of (path nodes, dst host);
        # memoise them so source launch never re-walks port maps.
        self._route_cache: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}

    # ----------------------------------------------------------- plumbing
    def _buf_idx(self, switch: int, port: int, vc: int) -> int:
        return switch * self._stride_switch + port * self._stride_port + vc

    def _push_arrival(self, time: int, flat_idx: int, packet: Packet) -> None:
        self._seq += 1
        heapq.heappush(self._arrivals, (time, self._seq, flat_idx, packet))

    # ------------------------------------------------------------- phases
    def _process_arrivals(self, now: int) -> None:
        heap = self._arrivals
        cfg = self.config
        tr = self._trace
        track_lat = self._track_lat
        while heap and heap[0][0] <= now:
            _, _, flat_idx, packet = heapq.heappop(heap)
            if flat_idx < 0:
                # Ejection: the packet reached its host.
                packet.t_deliver = now
                self.delivered += 1
                if track_lat:
                    self._lat_total += packet.latency
                t = now - self._measure_start
                if 0 <= t < cfg.measure_cycles:
                    s = t // cfg.sample_cycles
                    self._sample_sums[s] += packet.latency
                    self._sample_counts[s] += 1
                    self._latencies.append(packet.latency)
                    if self._fs is not None:
                        self._fs_pairs.append(
                            packet.src * self._fs_nh + packet.dst
                        )
                if tr is not None and packet.trace_id >= 0:
                    tr.event(
                        packet.trace_id, self._trace_run, obs_trace.EV_EJECT,
                        now, switch=packet.switches[-1],
                    )
                    tr.finish(packet.trace_id, now)
            else:
                self.in_q[flat_idx].append(packet)
                switch = flat_idx // self._stride_switch
                self.nonempty[switch].add(flat_idx)
                if tr is not None and packet.trace_id >= 0:
                    rem = flat_idx % self._stride_switch
                    tr.event(
                        packet.trace_id, self._trace_run,
                        obs_trace.EV_HOP_ENQUEUE, now, switch=switch,
                        port=rem // self.n_vcs, vc=rem % self.n_vcs,
                    )

    def _inject(self, now: int) -> None:
        hosts = self.active_hosts
        draws = self.rng.random(len(hosts)) < self.rate
        if not draws.any():
            return
        srcs = hosts[draws]
        # One vectorized draw covers every injecting host this cycle.
        dsts = self.traffic.dests(srcs, self.rng)
        tr = self._trace
        if tr is None:
            for h, dst in zip(srcs.tolist(), dsts.tolist()):
                q = self.source_q.get(h)
                if q is None:
                    q = deque()
                    self.source_q[h] = q
                q.append((now, dst))
        else:
            sw_of = self._switch_of_host
            for h, dst in zip(srcs.tolist(), dsts.tolist()):
                q = self.source_q.get(h)
                if q is None:
                    q = deque()
                    self.source_q[h] = q
                uid = tr.sample_packet(
                    self._trace_run, h, dst,
                    int(sw_of[h]), int(sw_of[dst]), now,
                )
                q.append((now, dst, uid))
        self.injected += len(srcs)

    def _launch_from_sources(self, now: int) -> None:
        cfg = self.config
        wiring = self.wiring
        tr = self._trace
        tracing = tr is not None
        inj_base = self._inj_link_base
        for h, q in self.source_q.items():
            if not q:
                continue
            sw = int(self._switch_of_host[h])
            inj_port = wiring.injection_port(h)
            idx = self._buf_idx(sw, inj_port, 0)
            if self.free[idx] <= 0:
                self._link_stall[inj_base + h] += 1
                if tracing and q[0][-1] >= 0:
                    tr.event(
                        q[0][-1], self._trace_run, obs_trace.EV_CREDIT_STALL,
                        now, switch=sw, port=inj_port, vc=0,
                    )
                continue
            if tracing:
                t_create, dst, uid = q.popleft()
            else:
                t_create, dst = q.popleft()
                uid = -1
            dst_sw = int(self._switch_of_host[dst])
            nodes = tuple(self.mechanism.choose(h, dst, sw, dst_sw))
            route = self._route_cache.get((nodes, dst))
            if route is None:
                route = wiring.route_ports(nodes, dst)
                self._route_cache[(nodes, dst)] = route
            packet = Packet(h, dst, nodes, route, t_create)
            if uid >= 0:
                packet.trace_id = uid
                idx_map = self.paths.path_index_map(sw, dst_sw)
                tr.set_route(uid, idx_map.get(nodes, -1), nodes, now)
                tr.event(
                    uid, self._trace_run, obs_trace.EV_VC_ALLOC, now,
                    switch=sw, port=inj_port, vc=0,
                )
            self.free[idx] -= 1
            self._link_fwd[inj_base + h] += 1
            self._push_arrival(now + cfg.channel_latency, idx, packet)

    def _allocate(self, now: int) -> None:
        cfg = self.config
        wiring = self.wiring
        n_vcs = self.n_vcs
        eject_base = wiring.n_switch_ports
        tr = self._trace
        tracing = tr is not None
        link_fwd = self._link_fwd
        link_stall = self._link_stall
        ej_base = self._ej_link_base
        for switch in range(self.topology.n_switches):
            active = self.nonempty[switch]
            if not active:
                continue
            # Gather head-of-line requests per output port, skipping flits
            # whose downstream buffer has no credit.  Iteration is sorted:
            # request-gathering order must not depend on set internals, or
            # grant outcomes (and trace event order) would vary with the
            # interpreter's hash seed instead of the run seed.
            requests: Dict[int, List[int]] = {}
            for flat_idx in sorted(active):
                packet: Packet = self.in_q[flat_idx][0]
                out_port = packet.route[packet.hop]
                if out_port < eject_base:
                    nxt = self.topology.adjacency[switch][out_port]
                    nxt_idx = self._buf_idx(
                        nxt, wiring.peer_port[switch][out_port], packet.hop + 1
                    )
                    if self.free[nxt_idx] <= 0:
                        link_stall[wiring.link_of[switch][out_port]] += 1
                        if tracing and packet.trace_id >= 0:
                            tr.event(
                                packet.trace_id, self._trace_run,
                                obs_trace.EV_CREDIT_STALL, now, switch=switch,
                                port=out_port, vc=packet.hop,
                            )
                        continue
                requests.setdefault(out_port, []).append(flat_idx)

            if not requests:
                continue
            granted_per_input: Dict[int, int] = {}
            speedup = cfg.input_speedup
            for out_port, cands in requests.items():
                # Rotating-priority (round-robin) arbitration per output.
                rr_key = switch * self.n_ports + out_port
                ptr = self.rr_ptr[rr_key]
                modulus = self._stride_switch
                cands.sort(key=lambda fi: (fi - ptr) % modulus)
                winner = None
                for fi in cands:
                    in_port = (fi % self._stride_switch) // n_vcs
                    if granted_per_input.get(in_port, 0) >= speedup:
                        continue
                    winner = fi
                    break
                if winner is None:
                    continue
                in_port = (winner % self._stride_switch) // n_vcs
                granted_per_input[in_port] = granted_per_input.get(in_port, 0) + 1
                self.rr_ptr[rr_key] = (winner % self._stride_switch) + 1

                q = self.in_q[winner]
                packet = q.popleft()
                if not q:
                    active.discard(winner)
                self.free[winner] += 1
                if packet.in_link >= 0:
                    self.occupancy[packet.in_link] -= 1
                    packet.in_link = -1

                if out_port >= eject_base:
                    link_fwd[ej_base + packet.dst] += 1
                    if tracing and packet.trace_id >= 0:
                        tr.event(
                            packet.trace_id, self._trace_run,
                            obs_trace.EV_HOP_DEPART, now, switch=switch,
                            port=out_port, vc=packet.hop,
                        )
                    self._push_arrival(now + cfg.channel_latency, -1, packet)
                else:
                    nxt = self.topology.adjacency[switch][out_port]
                    nxt_idx = self._buf_idx(
                        nxt, wiring.peer_port[switch][out_port], packet.hop + 1
                    )
                    link = wiring.link_of[switch][out_port]
                    self.free[nxt_idx] -= 1
                    self.occupancy[link] += 1
                    link_fwd[link] += 1
                    if tracing and packet.trace_id >= 0:
                        tr.event(
                            packet.trace_id, self._trace_run,
                            obs_trace.EV_HOP_DEPART, now, switch=switch,
                            port=out_port, vc=packet.hop, link=link,
                        )
                    packet.in_link = link
                    packet.hop += 1
                    self._push_arrival(now + cfg.channel_latency, nxt_idx, packet)

    # ---------------------------------------------------------------- run
    def _advance(self, start: int, stop: int) -> None:
        """Run the four-phase cycle loop for ``[start, stop)``.

        With the time-series and link-state recorders off this is the
        bare loop.  With either on, the loop is chunked at absolute window
        boundaries and a row is flushed at each — the cycle-by-cycle work
        (and every RNG draw) is identical either way, so enabling capture
        cannot change a run's results.  The batched engine steps its
        lanes through this same loop.
        """
        wins = self._windows
        if not wins:
            for now in range(start, stop):
                self._process_arrivals(now)
                self._inject(now)
                self._launch_from_sources(now)
                self._allocate(now)
            return
        peak = self._ls_peak
        cur = start
        while cur < stop:
            nxt = min(stop, *[w.next for w in wins])
            for now in range(cur, nxt):
                self._process_arrivals(now)
                self._inject(now)
                self._launch_from_sources(now)
                self._allocate(now)
                if peak is not None:
                    # End-of-cycle peak (see __init__): one vector max
                    # per cycle over the live occupancy.
                    np.maximum(peak, self._occupancy_view(), out=peak)
            cur = nxt
            for w in wins:
                if cur == w.next:
                    self._flush(w, cur)
                    w.next += w.window

    def _counts(self) -> tuple:
        """The run's counts as one lane, in fresh arrays (see WindowRows)."""
        return (
            np.array([self.injected]), np.array([self.delivered]),
            np.array([self._lat_total]), np.array([self._link_fwd]),
            np.array([self._link_stall]),
        )

    def _flush(self, win: WindowRows, now: int) -> None:
        """Record ``win``'s row covering ``[win.start, now)``."""
        if win.linkstate:
            rec, run, extra = self._ls, self._ls_run, self._ls_peak
        else:
            rec, run, extra = self._ts, self._ts_run, [self.buffered_flits()]
        rows = win.rows(now, self._counts(), self._n_sl, extra)
        for row in rows:
            rec.record_window(run, **row)
        if rows and win.linkstate:
            # Peak carries over: the next window opens at the occupancy the
            # last one closed at.  In place — _advance holds a reference.
            self._ls_peak[:] = self._occupancy_view()

    def _occupancy_view(self):
        """Live per-link occupancy array (the fast core overrides this)."""
        return self.occupancy

    def run(self) -> SimResult:
        """Simulate warmup + measurement and return the run statistics.

        The cycle loop is chunked at sample boundaries (identical cycle
        sequence either way) so VC-occupancy sampling costs nothing per
        cycle: when telemetry is enabled the buffer occupancy is read once
        per sample window, never inside the hot loop.  Link utilisation
        counts the flits sent onto each switch link after warmup.
        """
        cfg = self.config
        observe = metrics.enabled()
        t_wall = time.perf_counter()
        self._advance(0, cfg.warmup_cycles)
        warm = self._link_fwd[: self._n_sl]
        start = cfg.warmup_cycles
        for _ in range(cfg.n_samples):
            self._advance(start, start + cfg.sample_cycles)
            start += cfg.sample_cycles
            if observe:
                self._occupancy_samples.append(self.buffered_flits())
        for w in self._windows:
            self._flush(w, start)  # the final, possibly partial window
        link_flits = np.subtract(self._link_fwd[: self._n_sl], warm)
        result = build_result(
            cfg, self.rate, self.injected, self.delivered,
            self._sample_sums, self._sample_counts,
            self._latencies, link_flits, len(self.active_hosts),
        )
        # Wall-clock cycle throughput of this run (never part of the
        # deterministic result; recorded per engine for cross-engine
        # manifest comparisons).
        wall = time.perf_counter() - t_wall
        self.cycles_per_sec = self._end_cycle / wall if wall > 0 else 0.0
        if self._fs is not None:
            self._fs.record_run(self._fs_run, self._fs_pairs, self._latencies)
        publish_run(
            metrics.active(), result, self.engine_name, self._scheme,
            self.cycles_per_sec,
            (self.injected, self.delivered, self.flits_forwarded,
             self.credit_stalls),
            self._occupancy_samples, link_flits,
        )
        return result

    def drain(self) -> int:
        """Stop injecting and run until every packet is delivered.

        Returns the number of extra cycles spent.  Raises
        :class:`SimulationError` if the network fails to empty within
        ``config.drain_max_cycles`` — with loop-free source routes and
        hop-indexed VCs that would indicate a deadlock, so this doubles as
        a deadlock-freedom check in tests.
        """
        cfg = self.config
        start = self._end_cycle
        for now in range(start, start + cfg.drain_max_cycles):
            if self.in_flight() == 0:
                return now - start
            self._process_arrivals(now)
            self._launch_from_sources(now)
            self._allocate(now)
        if self.in_flight() != 0:
            raise SimulationError(
                f"network failed to drain within {cfg.drain_max_cycles} cycles: "
                f"{self.in_flight()} packets stuck"
            )
        return cfg.drain_max_cycles

    # --------------------------------------------------------- telemetry
    @property
    def flits_forwarded(self) -> int:
        """Flits sent onto switch links since cycle 0."""
        return sum(self._link_fwd[: self._n_sl])

    @property
    def credit_stalls(self) -> int:
        """Credit stalls since cycle 0 (injection and switch links)."""
        return sum(self._link_stall)

    def buffered_flits(self) -> int:
        """Flits currently occupying (input port, VC) buffer slots."""
        return len(self.free) * self.config.vc_buffer - sum(self.free)

    # ------------------------------------------------------- diagnostics
    def in_flight(self) -> int:
        """Packets inside the network or its queues (conservation checks)."""
        queued = sum(len(q) for q in self.in_q)
        flying = len(self._arrivals)
        sourced = sum(len(q) for q in self.source_q.values())
        return queued + flying + sourced

    def check_conservation(self) -> None:
        """Raise if injected != delivered + in-flight (a lost/dup packet)."""
        if self.injected != self.delivered + self.in_flight():
            raise SimulationError(
                f"conservation violated: injected={self.injected}, "
                f"delivered={self.delivered}, in_flight={self.in_flight()}"
            )
