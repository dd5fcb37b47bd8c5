"""Batched multi-lane engine: N independent runs in lock-step numpy lanes.

:class:`BatchSimulator` is the third engine tier.  It takes the fast
core's flat state — the structure-of-arrays packet store, ring-buffer VC
FIFOs, CSR route tables and calendar-queue arrivals of
:mod:`repro.netsim.fastcore` — and adds a leading batch dimension: N
independent runs (differing in injection rate, seed and/or routing
mechanism over one shared topology and path cache) advance through the
four-phase router together, one pass of vectorized numpy work per cycle
instead of one Python cycle loop per run.

The batch is laid out as a *union network*: lane ``l`` owns the flat
buffer range ``[l * n_bufs, (l + 1) * n_bufs)``, the link range
``[l * n_links, (l + 1) * n_links)`` and the switch-slot range
``[l * n_switches, (l + 1) * n_switches)``, so one ascending scan of the
union arrays visits every lane's buffers in exactly the per-lane order
the serial engines use.  Per-phase strategy:

- **arrivals** — at most one flit lands in any buffer per cycle (one
  launch per host, one grant per output port), so the whole calendar
  bucket is processed with vectorized scatters; per-lane statistics fall
  out of ``bincount`` over the packet store's lane column;
- **injection / launch** — every lane keeps its own
  ``numpy.random.Generator`` and makes exactly the serial per-cycle call
  sequence on it (``random(n_hosts)``, ``dests``, and the fast core's
  batched Lemire replay :func:`repro.netsim.fastcore.draw_batch`), so
  each lane's RNG stream is bit-identical to its serial run; each lane
  gathers its launchers' pair rows and draws, and every launch of the
  cycle is then routed and scattered by one vectorized pass per
  mechanism, merged across lanes;
- **allocation** — a cycle is *clean* when every head-of-line request
  has downstream credit, no two requests share an output port, and no
  input port exceeds its speedup; clean cycles (the common case below
  saturation) grant every request in one vectorized pass.  Contended
  cycles fall back to an exact sequential sweep of the union network
  that reproduces the fast core's per-switch arbitration — including
  rotating round-robin pointers and within-cycle credit visibility —
  switch slot by switch slot in ascending (= per-lane serial) order.

Everything a run *emits* is per-lane byte-identical to a serial
fast-engine run: ``SimResult`` fields, path-cache hit/miss counts, final
RNG states, metrics snapshots and time-series rows.  Like the serial
engines, the batch counts each forward and credit stall once, in two
union per-link counters; link utilisation, the metrics totals and the
window rows (:class:`~repro.netsim.simulator.WindowRows`, over all lanes
at once) are sums or differences of them.  Window rows are buffered per
lane during the lock-step run and replayed per lane, in lane order, at
publish time with the flow streams — reproducing the exact call sequence
N serial runs would have made (``tests/test_batchcore_equivalence.py``
pins all of it).

Deliberate scope limits (each raises :class:`ConfigurationError` rather
than silently diverging): no flight-recorder tracing, and only mechanisms
with an array-native implementation (``sp``, ``random``, ``round_robin``,
``ksp_ugal``, ``ksp_adaptive``) — vanilla UGAL composes Valiant routes
mid-run through its mechanism object, which a shared-table batch cannot
replay.  The saturation search
(:func:`repro.netsim.sweep.search_saturation`) runs such jobs alone on
the per-run engine.

Lanes that finish draining early are masked out of the drain loop, and
the allocator's scan compacts to the rows of still-active lanes once any
lane has drained, so a batch's drain cost tracks its live occupancy.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ConfigurationError, SimulationError
from repro.netsim.config import SimConfig
from repro.netsim.fastcore import _DRAW_PLAN, _tables_for, draw_batch
from repro.netsim.mechanisms import make_mechanism
from repro.netsim.network import NetworkWiring
from repro.netsim.simulator import (
    PatternTraffic,
    SimResult,
    Simulator,
    UniformTraffic,
    WindowRows,
    build_result,
    publish_run,
    register_run,
)
from repro.obs import flowstats as obs_flowstats
from repro.obs import linkstate as obs_linkstate
from repro.obs import metrics
from repro.obs import timeseries as obs_timeseries
from repro.obs import trace as obs_trace
from repro.topology.jellyfish import Jellyfish
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "BatchLane",
    "BatchSimulator",
    "BATCHABLE_MECHANISMS",
    "lane_vc_count",
]

#: Mechanisms with an array-native batched implementation: those with a
#: launch draw plan.  Vanilla UGAL ("ugal") builds composite Valiant
#: routes through its mechanism object at launch time and is excluded;
#: the saturation search runs such jobs alone on the per-run fast engine.
BATCHABLE_MECHANISMS = tuple(_DRAW_PLAN)


def lane_vc_count(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    config: SimConfig = SimConfig(),
) -> int:
    """The VC count a lane with this mechanism and cache state would use.

    All lanes of one batch share a buffer layout, so the saturation
    search groups jobs by ``(path cache, lane_vc_count(...))`` before
    packing them into batches.  Reads the cache as it stands;
    :class:`BatchSimulator` calls it once every lane has warmed the
    cache.  Construction of the probe mechanism touches neither the
    cache nor the metrics registry.
    """
    mech = make_mechanism(
        mechanism,
        NetworkWiring(topology),
        paths,
        np.zeros(topology.n_links, dtype=np.int64),
        ensure_rng(0),
        estimate=config.adaptive_estimate,
        channel_latency=config.channel_latency,
    )
    return max(paths.max_hops(), mech.max_route_hops()) + 1


@dataclass(frozen=True)
class BatchLane:
    """One lane of a batch: a run's mechanism, traffic, rate and seed."""

    mechanism: str
    traffic: UniformTraffic | PatternTraffic
    injection_rate: float
    seed: SeedLike = 0


class BatchSimulator:
    """N independent fast-engine runs stepped in lock-step (see module doc).

    Parameters
    ----------
    topology / paths:
        Shared by every lane; the path cache is warmed per lane in lane
        order, so its hit/miss evolution matches N sequential serial
        constructions.
    lanes:
        One :class:`BatchLane` per run.  All lanes must agree on the VC
        count their mechanism implies (the saturation search groups jobs
        by it); a disagreement raises :class:`ConfigurationError`.
    config:
        Shared simulator parameters.  VC-occupancy samples follow
        :meth:`run`'s ``observe``, which defaults to whether the metrics
        registry is enabled at ``run()`` time, exactly like the serial
        engines.
    """

    engine_name = "batched"

    def __init__(
        self,
        topology: Jellyfish,
        paths: PathCache,
        lanes: Sequence[BatchLane],
        config: SimConfig = SimConfig(),
        ):
        if not lanes:
            raise ConfigurationError("a batch needs at least one lane")
        if config.engine == "reference":
            raise ConfigurationError(
                'engine="reference" cannot step batched lanes: the batched '
                "engine is built on the array-native fast core"
            )
        if obs_trace.active() is not None:
            raise ConfigurationError(
                "the flight recorder traces one run at a time; run traced "
                "cells per-run on the fast engine"
            )
        for lane in lanes:
            if not (0.0 < lane.injection_rate <= 1.0):
                raise ConfigurationError(
                    f"injection_rate must be in (0, 1], got {lane.injection_rate}"
                )
            if lane.mechanism not in BATCHABLE_MECHANISMS:
                raise ConfigurationError(
                    f"mechanism {lane.mechanism!r} has no batched "
                    f"implementation (batchable: {BATCHABLE_MECHANISMS})"
                )

        self.topology = topology
        self.paths = paths
        self.config = config
        self.lanes = list(lanes)
        self.wiring = NetworkWiring(topology)
        N = len(self.lanes)
        self._n = N

        # Per-lane construction in lane order, mirroring N sequential
        # Simulator.__init__ calls: warm the cache for the lane's traffic
        # (counting hits/misses exactly as the serial engine's precompute
        # does — the registry side of those counts is captured per lane
        # and replayed at publish time), then derive the VC counts from
        # the store every lane has warmed.
        self.rngs: List[np.random.Generator] = []
        self._rates: List[float] = []
        self._traffics = []
        self._pre_snaps: List[dict] = []
        self._mech_names: List[str] = []
        for lane in self.lanes:
            with metrics.capture() as mreg:
                paths.precompute(lane.traffic.switch_pairs(topology))
            self._pre_snaps.append(mreg.snapshot())
            self.rngs.append(ensure_rng(lane.seed))
            self._rates.append(float(lane.injection_rate))
            self._traffics.append(lane.traffic)
            self._mech_names.append(lane.mechanism)
        n_vcs_per_lane = [
            lane_vc_count(topology, paths, lane.mechanism, config)
            for lane in self.lanes
        ]
        if len(set(n_vcs_per_lane)) != 1:
            raise ConfigurationError(
                "lanes disagree on the VC count "
                f"({sorted(set(n_vcs_per_lane))}); group lanes by "
                "(scheme, n_vcs) — mechanisms with different route-hop "
                "bounds cannot share one buffer layout"
            )
        self.n_vcs = n_vcs_per_lane[0]

        n_sw = topology.n_switches
        self.n_ports = self.wiring.n_ports
        self._stride = self.n_ports * self.n_vcs
        self._n_sw = n_sw
        n_bufs = n_sw * self._stride
        self._n_bufs = n_bufs
        self._n_links = topology.n_links
        self._n_sl = topology.n_switch_links
        cap = config.vc_buffer
        self._cap = cap

        # Union-network state: lane-major flat arrays (see module doc).
        self._flen = np.zeros(N * n_bufs, dtype=np.int64)
        self._fhead = np.zeros(N * n_bufs, dtype=np.int64)
        self._fifo = np.zeros(N * n_bufs * cap, dtype=np.int64)
        self._free = np.full(N * n_bufs, cap, dtype=np.int64)
        self._req_out = np.zeros(N * n_bufs, dtype=np.int64)
        self._req_nxt = np.zeros(N * n_bufs, dtype=np.int64)
        self._req_link = np.zeros(N * n_bufs, dtype=np.int64)
        self._inport_g = (np.arange(N * n_bufs, dtype=np.int64) % self._stride) // self.n_vcs
        self._rr = np.zeros(N * n_sw * self.n_ports, dtype=np.int64)
        self._occ = np.zeros(N * self._n_links, dtype=np.int64)
        # The serial engines' two per-link counters over the lane-major
        # link range (see repro.netsim.simulator's module docstring).
        self._link_fwd = np.zeros(N * self._n_links, dtype=np.int64)
        self._link_stall = np.zeros(N * self._n_links, dtype=np.int64)
        self._lane_starts = np.arange(N, dtype=np.int64) * n_bufs

        # Calendar queue shared across lanes (packets carry their lane).
        self._calP = config.channel_latency + 1
        self._cal: List[List[int]] = [[] for _ in range(self._calP)]
        self._cl = config.channel_latency

        # SoA packet store with a lane column; capacity doubles on demand.
        self._pk_cap = 1024
        z = lambda: np.zeros(self._pk_cap, dtype=np.int64)  # noqa: E731
        self._pk_rid = z()
        self._pk_hop = z()
        self._pk_t0 = z()
        self._pk_link = z()
        self._pk_dst = z()
        self._pk_dest = z()
        self._pk_lane = z()
        self._pk_src = z()
        self._pk_n = 0
        self._pk_free: List[int] = []

        # Host lookup tables (within-lane; launch adds the lane offset).
        wiring = self.wiring
        n_hosts = topology.n_hosts
        self._host_sw = [topology.switch_of_host(h) for h in range(n_hosts)]
        self._host_buf = [
            self._host_sw[h] * self._stride
            + wiring.injection_port(h) * self.n_vcs
            for h in range(n_hosts)
        ]
        self._eject_of = [wiring.ejection_port(h) for h in range(n_hosts)]
        self._eject_np = np.asarray(self._eject_of, dtype=np.int64)
        self._host_buf_np = np.asarray(self._host_buf, dtype=np.int64)

        # Shared CSR route tables + prebuilt pair records for every pair
        # any lane's traffic can use.  Records are built straight from the
        # warmed store (no counters): the serial fast core also builds
        # them outside the per-launch hit mirroring, counting exactly one
        # hit per launch — which the batch tallies per lane below.
        self._t = _tables_for(paths, wiring, self.n_vcs, self._stride, n_sw)
        for lane in self.lanes:
            for s, d in lane.traffic.switch_pairs(topology):
                if s * n_sw + d not in self._t.pair:
                    ps = paths.peek(s, d)
                    if ps is None:  # precompute above warmed every pair
                        raise KeyError((s, d))
                    self._t.pair_record(s, d, ps)
        self._rf_len = -1
        self._n_routes = -1
        self._refresh_tables()

        # Per-lane run state.  The source queues stay dicts of deques
        # (serial iteration order is dict insertion order — the order
        # hosts first inject — and the RNG draw sequence depends on it),
        # but the launch gather scans a mirror: ``_qord`` records each
        # lane's hosts in that same insertion order and ``_qlen`` holds
        # per-(lane, host) queue depths, so finding the nonempty queues
        # is one vector compare instead of a dict walk.
        self._hosts = [t.sources() for t in self._traffics]
        self._srcq: List[Dict[int, deque]] = [{} for _ in range(N)]
        self._n_hostsG = len(self._host_buf)
        self._qlen = np.zeros(N * self._n_hostsG, dtype=np.int64)
        self._qord: List[List[int]] = [[] for _ in range(N)]
        self._qord_np: List[Optional[np.ndarray]] = [None] * N
        # Fixed-destination lanes (single-flow pattern traffic): every
        # packet from host h targets the same destination, so the
        # host -> pair-row mapping is a per-lane constant (``_hrow``) and
        # the source queues hold bare create times.
        self._fixed_dst: List[Optional[np.ndarray]] = []
        for t in self._traffics:
            fd = None
            if isinstance(t, PatternTraffic):
                src = t.sources()
                if src.size and bool((t._counts[src] == 1).all()):
                    fd = np.full(self._n_hostsG, -1, dtype=np.int64)
                    fd[src] = t._flat[t._offsets[src]]
            self._fixed_dst.append(fd)
        self._hrow = np.full(N * self._n_hostsG, -1, dtype=np.int64)
        # Round-robin path counters, keyed by (lane, source, destination)
        # flattened to one int.
        self._rr_flow: Dict[int, int] = {}
        self._plans = [_DRAW_PLAN[m] for m in self._mech_names]
        self._est_first = config.adaptive_estimate == "first"
        self._live: List[int] = list(range(N))

        # Padded per-pair route tables for the vectorized launch: one row
        # per pair record, columns are candidate paths (route id, hop
        # count, first link, canonical rank).  Rows materialise on first
        # use; width grows if a record ever exceeds it.  The dict maps
        # pair key -> row.
        self._pairx: Dict[int, int] = {}
        self._row_n = 0
        self._row_cap = 0
        self._kmax = 8
        self._rk = np.zeros(0, dtype=np.int64)
        self._rrids = np.zeros((0, self._kmax), dtype=np.int64)
        self._rhops = np.zeros((0, self._kmax), dtype=np.int64)
        self._rflink = np.zeros((0, self._kmax), dtype=np.int64)
        self._rrank = np.zeros((0, self._kmax), dtype=np.int64)

        # Per-lane statistics (bincount-updatable int64 columns).
        self._injected = np.zeros(N, dtype=np.int64)
        self._delivered = np.zeros(N, dtype=np.int64)
        self._lat_total = np.zeros(N, dtype=np.int64)
        self._n_sourced = np.zeros(N, dtype=np.int64)
        self._n_flying = np.zeros(N, dtype=np.int64)
        self._n_buffered = np.zeros(N, dtype=np.int64)
        self._lane_hits = np.zeros(N, dtype=np.int64)
        self._lazy_snaps: List[List[dict]] = [[] for _ in range(N)]
        self._draining = False
        self._pub: Optional[tuple] = None
        self._occ_samples: List[List[int]] = [[] for _ in range(N)]
        self._measure_start = config.warmup_cycles
        self._sample_sums = np.zeros((N, config.n_samples), dtype=np.float64)
        self._sample_counts = np.zeros((N, config.n_samples), dtype=np.int64)
        self._mlat_lane: List[int] = []
        self._mlat_val: List[int] = []
        self._end_cycle = config.total_cycles

        # Time-series and link-state window rows: worked out from the
        # lanes' counts by WindowRows, buffered per lane during the
        # lock-step run and replayed per lane at publish time, so each
        # recorder sees the exact call sequence of N serial runs.
        # The link-state peak is the end-of-cycle maximum over the union
        # occupancy (see Simulator.__init__) — order-independent, so the
        # vectorized grant pass needs no serial replay.
        ts = obs_timeseries.active()
        lsr = obs_linkstate.active()
        self._ts = ts
        self._ls = lsr
        self._track_lat = ts is not None
        self._scheme = getattr(paths.selector, "name", "unknown")
        self._windows = [
            WindowRows(rec.window, rec is lsr, self._counts())
            for rec in (ts, lsr) if rec is not None
        ]
        self._ts_rows: List[List[dict]] = [[] for _ in range(N)]
        self._ls_rows: List[List[dict]] = [[] for _ in range(N)]
        self._ls_peak = (
            np.zeros(N * self._n_links, dtype=np.int64)
            if lsr is not None else None
        )
        self._inj_lbase = topology.injection_link_base
        self._ej_lbase = topology.ejection_link_base

        # Per-(src,dst) flow capture: ejections tally their pair id next
        # to the measured-latency samples, split per lane and replayed
        # into the recorder at publish time like the rows above.
        self._fs_on = obs_flowstats.active() is not None
        self._mlat_pair: List[int] = []

        # Allocation scratch reused across slots and cycles.
        self._port_cands: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.n_ports)
        ]
        self._touched: List[int] = []
        self._gin = [0] * self.n_ports
        self._gwin: List[int] = []
        # Clean-granted buffers of the current cycle (mixed clean/dirty
        # cycles only): the dirty sweep corrects its credit view with it.
        self._popped = np.zeros(N * n_bufs, dtype=bool)
        self._n_slots = N * self._n_sw
        self._n_okeys = self._n_slots * self.n_ports

    # ------------------------------------------------------------- tables
    def _refresh_tables(self) -> None:
        """(Re)build numpy mirrors of the shared CSR route tables.

        The per-hop arrays get one sentinel slot so ejection rows (whose
        base offset may point one past the end) can be clipped instead of
        branched.  Mirrors refresh whenever the shared tables grew (e.g.
        a serial run on the same cache added routes between batches).
        """
        t = self._t
        if self._rf_len == len(t.rf_out) and self._n_routes == len(t.r_off):
            return
        self._rf_len = len(t.rf_out)
        self._n_routes = len(t.r_off)
        self._rf_out_np = np.asarray(t.rf_out + [0], dtype=np.int64)
        self._rf_nxt_np = np.asarray(t.rf_nxt + [0], dtype=np.int64)
        self._rf_link_np = np.asarray(t.rf_link + [0], dtype=np.int64)
        self._r_off_np = np.asarray(t.r_off, dtype=np.int64)
        self._r_hops_np = np.asarray(t.r_hops, dtype=np.int64)
        # Highest VC any route step can occupy (hop-indexed VCs: a flit
        # at hop h sits in VC h, so the table's next-buffer VC components
        # bound the occupied ladder depth).  ``n_vcs`` itself is sized to
        # the mechanism's worst-case bound — often far deeper than any
        # cached route — and the active scan only needs to look at the
        # prefix that can ever hold a flit (injection uses VC 0).
        nx = self._rf_nxt_np[:-1]
        nx = nx[nx >= 0]
        self._vc_used = int((nx % self.n_vcs).max()) + 1 if nx.size else 1
        # Padded per-route link matrix for the vectorized whole-path
        # occupancy sum: row r holds route r's link ids, zero-masked
        # past its hop count.
        if self._n_routes:
            hmax = max(1, int(self._r_hops_np.max()))
            cols = np.arange(hmax, dtype=np.int64)[None, :]
            pos = self._r_off_np[:, None] + cols
            valid = cols < self._r_hops_np[:, None]
            self._plink = np.where(
                valid, self._rf_link_np[np.minimum(pos, self._rf_len)], 0
            )
            self._pmask = valid.astype(np.int64)
        else:
            self._plink = np.zeros((0, 1), dtype=np.int64)
            self._pmask = np.zeros((0, 1), dtype=np.int64)

    # ------------------------------------------------------- packet store
    def _ensure_pk(self, need: int) -> None:
        if need <= self._pk_cap:
            return
        cap = self._pk_cap
        while cap < need:
            cap *= 2
        for name in (
            "_pk_rid", "_pk_hop", "_pk_t0", "_pk_link",
            "_pk_dst", "_pk_dest", "_pk_lane", "_pk_src",
        ):
            grown = np.zeros(cap, dtype=np.int64)
            old = getattr(self, name)
            grown[: self._pk_n] = old[: self._pk_n]
            setattr(self, name, grown)
        self._pk_cap = cap

    # ------------------------------------------------------------- phases
    def _refresh_memo(self, bufs: np.ndarray, pids: np.ndarray) -> None:
        """Vectorized head-of-line request memo refresh for ``bufs``."""
        rid = self._pk_rid[pids]
        hop = self._pk_hop[pids]
        fwd = hop < self._r_hops_np[rid]
        base = np.minimum(self._r_off_np[rid] + hop, self._rf_len)
        lane = bufs // self._n_bufs
        self._req_out[bufs] = np.where(
            fwd, self._rf_out_np[base], self._eject_np[self._pk_dst[pids]]
        )
        self._req_nxt[bufs] = np.where(
            fwd, self._rf_nxt_np[base] + lane * self._n_bufs, -1
        )
        # Ejection heads memo their ejection link, as the fast core's do.
        self._req_link[bufs] = lane * self._n_links + np.where(
            fwd, self._rf_link_np[base],
            self._ej_lbase + self._pk_dst[pids],
        )

    def _process_arrivals(self, now: int) -> None:
        bucket = self._cal[now % self._calP]
        if not bucket:
            return
        N = self._n
        # Buckets hold chunks: pid arrays from the vectorized grant and
        # launch paths plus bare ints from the sequential sweep.  Merge
        # order is immaterial — arrivals land in distinct buffers and
        # every statistic below is a sum, count or percentile.
        if len(bucket) == 1 and type(bucket[0]) is np.ndarray:
            pids = bucket[0]
        else:
            arrs: List[np.ndarray] = []
            ints: List[int] = []
            for chunk in bucket:
                if type(chunk) is np.ndarray:
                    arrs.append(chunk)
                else:
                    ints.append(chunk)
            if ints:
                arrs.append(np.asarray(ints, dtype=np.int64))
            pids = arrs[0] if len(arrs) == 1 else np.concatenate(arrs)
        bucket.clear()
        dest = self._pk_dest[pids]
        lanes = self._pk_lane[pids]
        self._n_flying -= np.bincount(lanes, minlength=N)
        ej = dest < 0
        if ej.any():
            epids = pids[ej]
            elanes = lanes[ej]
            lat = now - self._pk_t0[epids]
            ecnt = np.bincount(elanes, minlength=N)
            self._delivered += ecnt
            if self._track_lat:
                # bincount's float64 accumulator is exact here: per-cycle
                # latency sums stay far below 2**53.
                self._lat_total += np.bincount(
                    elanes, weights=lat, minlength=N
                ).astype(np.int64)
            t = now - self._measure_start
            if 0 <= t < self.config.measure_cycles:
                s = t // self.config.sample_cycles
                self._sample_sums[:, s] += np.bincount(
                    elanes, weights=lat, minlength=N
                ).astype(np.int64)
                self._sample_counts[:, s] += ecnt
                self._mlat_lane.extend(elanes.tolist())
                self._mlat_val.extend(lat.tolist())
                if self._fs_on:
                    self._mlat_pair.extend(
                        (
                            self._pk_src[epids] * self._n_hostsG
                            + self._pk_dst[epids]
                        ).tolist()
                    )
            self._pk_free.extend(epids.tolist())
        enq = ~ej
        if enq.any():
            qpids = pids[enq]
            idx = dest[enq]
            # At most one flit lands in any buffer per cycle (one launch
            # per host, one grant per output port), so plain fancy
            # scatters are exact.
            length = self._flen[idx]
            pos = self._fhead[idx] + length
            pos -= self._cap * (pos >= self._cap)
            self._fifo[idx * self._cap + pos] = qpids
            self._flen[idx] = length + 1
            self._n_buffered += np.bincount(lanes[enq], minlength=N)
            new = length == 0
            if new.any():
                self._refresh_memo(idx[new], qpids[new])

    def _inject(self, now: int) -> None:
        for lane in self._live:
            rng = self.rngs[lane]
            hosts = self._hosts[lane]
            draws = rng.random(len(hosts)) < self._rates[lane]
            if not draws.any():
                continue
            srcs = hosts[draws]
            # The dests draw always runs (RNG parity with serial), even
            # when every source has a single fixed destination.
            dsts = self._traffics[lane].dests(srcs, rng)
            srcq = self._srcq[lane]
            qord = self._qord[lane]
            if self._fixed_dst[lane] is not None:
                for h in srcs.tolist():
                    q = srcq.get(h)
                    if q is None:
                        q = srcq[h] = deque()
                        qord.append(h)
                        self._qord_np[lane] = None
                    q.append(now)
            else:
                for h, dst in zip(srcs.tolist(), dsts.tolist()):
                    q = srcq.get(h)
                    if q is None:
                        q = srcq[h] = deque()
                        qord.append(h)
                        self._qord_np[lane] = None
                    q.append((now, dst))
            self._qlen[lane * self._n_hostsG + srcs] += 1
            self._injected[lane] += len(srcs)
            self._n_sourced[lane] += len(srcs)

    def _launch_from_sources(self, now: int) -> None:
        # Lanes gather (and draw their RNG values) strictly in lane
        # order; the launches are then flushed as one merged scatter per
        # mechanism.  Deferral only reorders freelist pops across lanes,
        # which changes internal pid values and nothing observable: every
        # per-pid write lands in per-packet or per-buffer cells, and no
        # statistic reads the pid value itself.
        pend = []
        for lane in self._live:
            if self._n_sourced[lane]:
                item = self._launch_lane(lane)
                if item is not None:
                    pend.append(item)
        if pend:
            self._flush_launches(now, pend)

    def _flush_launches(self, now: int, pend: list) -> None:
        """Flush the gathered launches, merged across lanes per mech."""
        total = sum(p[2].size for p in pend)
        self._ensure_pk(self._pk_n + total)
        bucket = self._cal[(now + self._cl) % self._calP]
        by_mech: Dict[str, list] = {}
        for item in pend:
            by_mech.setdefault(item[1], []).append(item)
        for mech, parts in by_mech.items():
            if len(parts) == 1:
                lane, _, hosts, rows, vals, t0v, dstv = parts[0]
                self._launch_vec(
                    mech, hosts, rows, vals, t0v, dstv, bucket,
                    lane * self._n_bufs, lane * self._n_links, lane,
                )
                continue
            hosts = np.concatenate([p[2] for p in parts])
            rows = np.concatenate([p[3] for p in parts])
            t0v = np.concatenate([p[5] for p in parts])
            dstv = np.concatenate([p[6] for p in parts])
            vlist = [
                np.asarray(p[4], dtype=np.int64) for p in parts if len(p[4])
            ]
            vals = np.concatenate(vlist) if vlist else ()
            lanev = np.repeat(
                np.asarray([p[0] for p in parts], dtype=np.int64),
                np.asarray([p[2].size for p in parts], dtype=np.int64),
            )
            self._launch_vec(
                mech, hosts, rows, vals, t0v, dstv, bucket,
                lanev * self._n_bufs, lanev * self._n_links, lanev,
            )

    def _launch_lane(self, lane: int) -> Optional[tuple]:
        """One lane's launch gather — the fast core's gather and draw with
        this lane's RNG, source queues and buffer/link offsets.

        Returns the lane's pending launch ``(lane, mech, hosts, rows,
        vals, t0, dst)`` for :meth:`_flush_launches`, or None when no
        host launches.  Queue pops happen here (lane-local).
        """
        loff = lane * self._n_bufs
        # Nonempty-queue scan and credit pre-scan, both vectorized over
        # the insertion-order host mirror (``_qord``/``_qlen`` — see
        # __init__): the filtered host sequence equals the serial dict
        # walk exactly, so the RNG bound order is preserved.  Launches
        # only mutate this lane's injection credits and those are
        # written after every read below, so the credit gather equals
        # the serial in-order scalar reads.
        qarr = self._qord_np[lane]
        if qarr is None:
            qarr = self._qord_np[lane] = np.asarray(
                self._qord[lane], dtype=np.int64
            )
        if not qarr.size:
            return None
        nz = qarr[self._qlen[lane * self._n_hostsG + qarr] > 0]
        if not nz.size:
            return None
        okm = self._free[loff + self._host_buf_np[nz]] > 0
        sel = nz[okm]
        if sel.size < nz.size:
            # Each stalled host appears once, so the fancy add is exact.
            self._link_stall[
                lane * self._n_links + self._inj_lbase + nz[~okm]
            ] += 1
        launched = sel.size
        if not launched:
            return None
        hosts = sel.tolist()
        hbase = lane * self._n_hostsG
        srcq = self._srcq[lane]
        fd = self._fixed_dst[lane]
        lazy = 0
        if fd is not None:
            rows = self._hrow[hbase + sel]
            cold = rows < 0
            if cold.any():
                ch = sel[cold]
                crows, lazy = self._pair_rows(
                    lane, ch.tolist(), fd[ch].tolist()
                )
                self._hrow[hbase + ch] = crows
                rows = self._hrow[hbase + sel]
        else:
            rows, lazy = self._pair_rows(
                lane, hosts, [srcq[h][0][1] for h in hosts]
            )
        # Draw bounds from the row widths, in the per-launcher order the
        # serial gather appends them.
        kv = self._rk[rows]
        ndraw, skip_k1, bnd_off = self._plans[lane]
        if ndraw == 2:
            km = kv[kv > 1]
            bounds = np.empty(2 * km.size, dtype=np.int64)
            bounds[0::2] = km
            bounds[1::2] = km - 1
        elif ndraw == 1:
            bounds = (kv[kv > 1] if skip_k1 else kv) - bnd_off
        else:
            bounds = kv[:0]
        vals = (
            draw_batch(self.rngs[lane], bounds.tolist())
            if bounds.size else ()
        )
        # Every launch whose record was already built mirrors one
        # reference-engine cache hit; tallied per lane and published
        # (with the lane's precompute counts) at publish time.  Launchers
        # whose record was built mid-run above already counted their
        # hit-or-miss.  Drain-time hits go straight to the live registry
        # — the serial engines do the same, having already published
        # their run totals at run end.
        warm = launched - lazy
        self.paths.hits += warm
        if not self._draining:
            self._lane_hits[lane] += warm
        else:
            reg = metrics._active
            if reg is not None and warm:
                reg.counter("core.cache.hit").inc(warm)
        if fd is not None:
            t0 = np.fromiter(
                (srcq[h].popleft() for h in hosts),
                dtype=np.int64, count=launched,
            )
            dst = fd[sel]
        else:
            td = np.asarray(
                [srcq[h].popleft() for h in hosts], dtype=np.int64
            )
            t0, dst = td[:, 0], td[:, 1]
        self._qlen[hbase + sel] -= 1
        self._n_flying[lane] += launched
        self._n_sourced[lane] -= launched
        return (lane, self._mech_names[lane], sel, rows, vals, t0, dst)

    def _pair_rows(
        self, lane: int, hosts: List[int], dsts: List[int]
    ) -> Tuple[np.ndarray, int]:
        """Pair rows of launchers ``hosts`` bound for ``dsts``, plus how
        many of them built their pair record mid-run (each of those
        counted its own cache hit-or-miss in :meth:`_lazy_pair_rec`)."""
        host_sw = self._host_sw
        n_sw = self._n_sw
        pairx_get = self._pairx.get
        rows: List[int] = []
        rapp = rows.append
        lazy = 0
        for h, d in zip(hosts, dsts):
            sw_s = host_sw[h]
            sw_d = host_sw[d]
            key = sw_s * n_sw + sw_d
            row = pairx_get(key)
            if row is None:
                rec = self._t.pair.get(key)
                if rec is None:
                    rec = self._lazy_pair_rec(lane, sw_s, sw_d)
                    lazy += 1
                row = self._add_row(key, rec)
            rapp(row)
        return np.asarray(rows, dtype=np.int64), lazy

    def _add_row(self, key: int, rec: tuple) -> int:
        """Materialise one pair record's padded route-table row."""
        k, rids, hops, links, rank = rec
        if k > self._kmax:
            w = self._kmax
            while w < k:
                w *= 2
            for name in ("_rrids", "_rhops", "_rflink", "_rrank"):
                old = getattr(self, name)
                wide = np.zeros((old.shape[0], w), dtype=np.int64)
                wide[:, : self._kmax] = old
                setattr(self, name, wide)
            self._kmax = w
        row = self._row_n
        if row == self._row_cap:
            cap = max(256, self._row_cap * 2)
            rk = np.zeros(cap, dtype=np.int64)
            rk[:row] = self._rk[:row]
            self._rk = rk
            for name in ("_rrids", "_rhops", "_rflink", "_rrank"):
                old = getattr(self, name)
                grown = np.zeros((cap, self._kmax), dtype=np.int64)
                grown[:row] = old[:row]
                setattr(self, name, grown)
            self._row_cap = cap
        self._rk[row] = k
        self._rrids[row, :k] = rids
        self._rhops[row, :k] = hops
        # Same-switch pairs have a single zero-hop path with no links;
        # they are k == 1 rows whose first-link column is never selected.
        self._rflink[row, :k] = [ln[0] if ln else 0 for ln in links]
        self._rrank[row, :k] = rank
        self._pairx[key] = row
        self._row_n = row + 1
        return row

    def _est_pair(self, locc, rows, i, j):
        """Vectorized latency estimates for candidate columns (i, j).

        ``locc`` is the per-launcher link-occupancy offset — a scalar
        for single-lane calls, an array aligned with ``rows`` for
        cross-lane merged launches.  Mirrors the fast core's pickers
        exactly: first-channel-queue x hops in ``"first"`` mode, hops x
        channel latency plus the queued flits along the whole route in
        ``"path"`` mode (zero-masked padded gather), all in integer
        arithmetic.
        """
        occ = self._occ
        hi = self._rhops[rows, i]
        hj = self._rhops[rows, j]
        if self._est_first:
            ea = occ[locc + self._rflink[rows, i]] * hi
            eb = occ[locc + self._rflink[rows, j]] * hj
        else:
            ri = self._rrids[rows, i]
            rj = self._rrids[rows, j]
            cl = self._cl
            lo2 = locc[:, None] if isinstance(locc, np.ndarray) else locc
            ea = hi * cl + (
                occ[lo2 + self._plink[ri]] * self._pmask[ri]
            ).sum(axis=1)
            eb = hj * cl + (
                occ[lo2 + self._plink[rj]] * self._pmask[rj]
            ).sum(axis=1)
        return ea, eb, hi, hj

    def _launch_vec(
        self, mech, hosts, rows, vals, t0v, dstv, bucket, loff, locc, lanev
    ) -> None:
        """Vectorized launch tail: route choice, pid assignment and the
        packet-store scatters for the cycle's gathered launchers —
        single-lane (scalar ``loff``/``locc``/``lanev``) or merged
        across lanes (arrays aligned with ``hosts``).

        Exactness mirrors the fast core's pick pass: the choosers are
        pure integer arithmetic over the padded row tables (``rows``)
        and the pre-launch link occupancy (static during the launch
        phase — launches only touch injection credits, and each lane's
        buffer range is disjoint), the draw values are consumed in the
        same per-launcher order the bounds were built in, and pids are
        taken from the freelist tail in pop order.  Both occupancy
        estimates vectorize: the first-link product is a single gather,
        the whole-path sum a zero-masked gather over the padded
        per-route link matrix.  A lane launches each host at most once
        per cycle, so each round-robin counter moves at most once per
        call.
        """
        launched = hosts.size
        if mech == "sp":
            rid_arr = self._rrids[rows, 0]
        elif mech == "round_robin":
            nh = self._n_hostsG
            keys = ((lanev * nh + hosts) * nh + dstv).tolist()
            get = self._rr_flow.get
            cnt = [get(key, 0) for key in keys]
            self._rr_flow.update(zip(keys, [i + 1 for i in cnt]))
            rid_arr = self._rrids[
                rows, np.asarray(cnt, dtype=np.int64) % self._rk[rows]
            ]
        elif mech == "random":
            rid_arr = self._rrids[
                rows, np.asarray(vals, dtype=np.int64)
            ]
        elif mech == "ksp_ugal":
            kv = self._rk[rows]
            j = np.zeros(launched, dtype=np.int64)
            mm = kv > 1
            if mm.any():
                j[mm] = 1 + np.asarray(vals, dtype=np.int64)
            i = np.zeros(launched, dtype=np.int64)
            ea, eb, hi, hj = self._est_pair(locc, rows, i, j)
            pick_j = (ea > eb) | ((ea == eb) & (hi > hj))
            rid_arr = np.where(
                pick_j, self._rrids[rows, j], self._rrids[rows, 0]
            )
        else:  # ksp_adaptive
            kv = self._rk[rows]
            rid_arr = self._rrids[rows, 0]
            mm = np.flatnonzero(kv > 1)
            if mm.size:
                va = np.asarray(vals, dtype=np.int64)
                r2 = rows[mm]
                i0 = va[0::2]
                j0 = va[1::2] + (va[1::2] >= i0)
                swap = self._rrank[r2, i0] > self._rrank[r2, j0]
                ii = np.where(swap, j0, i0)
                jj = np.where(swap, i0, j0)
                lo2 = locc[mm] if isinstance(locc, np.ndarray) else locc
                ea, eb, hi, hj = self._est_pair(lo2, r2, ii, jj)
                pick_j = (ea > eb) | ((ea == eb) & (hi > hj))
                chosen = np.where(
                    pick_j, self._rrids[r2, jj], self._rrids[r2, ii]
                )
                if mm.size == launched:
                    rid_arr = chosen
                else:
                    rid_arr[mm] = chosen
        freelist = self._pk_free
        nf = len(freelist)
        take = launched if launched <= nf else nf
        if take:
            pid_l = freelist[nf - take:]
            pid_l.reverse()
            del freelist[nf - take:]
        else:
            pid_l = []
        if launched > take:
            pk_n = self._pk_n
            pid_l.extend(range(pk_n, pk_n + launched - take))
            self._pk_n = pk_n + launched - take
        pids = np.asarray(pid_l, dtype=np.int64)
        idxs = loff + self._host_buf_np[hosts]
        self._pk_rid[pids] = rid_arr
        self._pk_hop[pids] = 0
        self._pk_t0[pids] = t0v
        self._pk_link[pids] = -1
        self._pk_dst[pids] = dstv
        self._pk_dest[pids] = idxs
        self._pk_lane[pids] = lanev
        self._pk_src[pids] = hosts
        self._free[idxs] -= 1
        # (lane, host) pairs are unique this cycle: fancy add exact.
        self._link_fwd[locc + self._inj_lbase + hosts] += 1
        bucket.append(pids)

    def _lazy_pair_rec(self, lane: int, sw_s: int, sw_d: int) -> tuple:
        """Materialise a route record first used mid-run (the serial fast
        core's cold-record gather, with deferred registry attribution).

        ``switch_pairs`` omits same-switch pairs, so uniform traffic can
        reach a pair no precompute warmed.  The plain-int cache tallies
        update live exactly as serial's would (one hit, or one real miss
        through ``paths.get``); the registry side is tallied on *this*
        lane and replayed at publish.  When lanes race to a cold pair the
        miss lands on whichever lane reaches it first in batch time —
        totals across the batch still equal the serial lane sequence's
        (pattern-traffic grids never take this path: their pair sets are
        fully warmed up front).
        """
        paths = self.paths
        ps = paths.peek(sw_s, sw_d)
        if ps is not None:
            paths.hits += 1
            if self._draining:
                # Serial engines mirror drain-time hits into whatever
                # registry is live (publication already happened at run
                # end), so the batch does too instead of deferring.
                reg = metrics._active
                if reg is not None:
                    reg.counter("core.cache.hit").inc()
            else:
                self._lane_hits[lane] += 1
        elif self._draining:
            ps = paths.get(sw_s, sw_d)
        else:
            with metrics.capture() as mreg:
                # The real get: counts the miss on the plain-int tallies
                # and runs the selector, whose counters (and the miss)
                # land in this capture — replayed for this lane at
                # publish time like the precompute snapshot.
                ps = paths.get(sw_s, sw_d)
            self._lazy_snaps[lane].append(mreg.snapshot())
        rec = self._t.pair_record(sw_s, sw_d, ps)
        self._refresh_tables()  # the record may have added routes
        return rec

    # --------------------------------------------------------- allocation
    def _active_scan(self) -> np.ndarray:
        """Ascending union indices of non-empty buffers (live lanes only).

        With every lane live this is one flat ``flatnonzero``; once lanes
        have drained the scan compacts to the live lanes' rows — the
        ascending order (= per-lane serial switch order) is preserved
        because live lane ids are kept sorted.  Only the occupiable VC
        prefix is scanned (``_vc_used``): the ladder is sized to the
        mechanism's worst-case hop bound, but flits can only ever sit in
        VCs the route tables reach, and the row-major sub-scan keeps the
        ascending union order.
        """
        vcs = self.n_vcs
        used = self._vc_used
        if len(self._live) == self._n:
            if used < vcs:
                sub = np.flatnonzero(self._flen.reshape(-1, vcs)[:, :used])
                return (sub // used) * vcs + sub % used
            return np.flatnonzero(self._flen)
        if not self._live:
            return np.empty(0, dtype=np.int64)
        rows = np.asarray(self._live, dtype=np.int64)
        block = self._flen.reshape(self._n, self._n_bufs)[rows]
        if used < vcs:
            s = np.flatnonzero(block.reshape(-1, vcs)[:, :used])
            sub = (s // used) * vcs + s % used
        else:
            sub = np.flatnonzero(block)
        return rows[sub // self._n_bufs] * self._n_bufs + sub % self._n_bufs

    def _allocate(self, now: int) -> None:
        act = self._active_scan()
        if act.size == 0:
            return
        if act.size <= 48:
            # Light cycles: the exact sequential sweep beats the
            # vectorized pass's fixed per-cycle cost.
            self._allocate_dirty(now, act)
            return
        n_ports = self.n_ports
        nxt = self._req_nxt[act]
        slot = act // self._stride
        sbase = slot * n_ports
        okey = sbase + self._req_out[act]
        # A switch slot is *dirty* only when its outcome depends on the
        # serial sweep order: a head without pre-pass credit could still
        # be granted because its target may pop earlier in the sweep
        # (target active, earlier slot), or the rotating-priority winners
        # would push an input port past its speedup (the serial gate then
        # skips candidates mid-scan).  Plain output-port contention is
        # NOT dirty — the round-robin winner is resolved vectorized in
        # :meth:`_pick_winners`, and the speedup condition is validated
        # on the *winners* after arbitration: an input port fielding many
        # candidates is harmless while it wins at most ``speedup`` output
        # ports (the serial gate only skips once a port's grant count has
        # reached the cap).  Heads without credit whose target cannot pop
        # first are definite stalls — serial skips them during gathering
        # — so they are dropped from the candidate set without dirtying
        # the slot.  All conditions are slot-local: the only cross-slot
        # credit interaction is a pop (credits into a buffer are taken
        # solely by same-slot heads sharing (slot, out port), resolved to
        # one winner by the arbitration).
        dirty = None
        keep = None
        fwd = np.flatnonzero(nxt >= 0)
        if fwd.size:
            tgt = nxt[fwd]
            bad = fwd[self._free[tgt] <= 0]
            if bad.size:
                tgt = nxt[bad]
                maybe = (self._flen[tgt] > 0) & (tgt // self._stride < slot[bad])
                if maybe.any():
                    dirty = np.zeros(self._n_slots, dtype=bool)
                    dirty[slot[bad[maybe]]] = True
                keep = np.ones(act.size, dtype=bool)
                keep[bad] = False
        # Arbitrate the credit-clean candidates outside credit-dirty
        # slots, then validate the winners against the speedup gate.
        cm = keep
        if dirty is not None:
            cm = keep & ~dirty[slot]
        if cm is None:
            c_idx = None
            w = self._pick_winners(act, slot, okey)
            w_act = act if w is None else act[w]
            w_slot = slot if w is None else slot[w]
        else:
            c_idx = np.flatnonzero(cm)
            sub_act = act[c_idx]
            sub_slot = slot[c_idx]
            w = self._pick_winners(sub_act, sub_slot, okey[c_idx])
            w_act = sub_act if w is None else sub_act[w]
            w_slot = sub_slot if w is None else sub_slot[w]
        if w_act.size > 1:
            w_ikey = w_slot * n_ports + self._inport_g[w_act]
            wcnt = np.bincount(w_ikey, minlength=self._n_okeys)
            over = wcnt[w_ikey] > self.config.input_speedup
            if over.any():
                if dirty is None:
                    dirty = np.zeros(self._n_slots, dtype=bool)
                dirty[w_slot[over]] = True
        if dirty is None:
            if keep is not None:
                # The dropped heads are definite stalls, counted exactly
                # as the serial gathering pass would; several heads can
                # block on one wanted link.
                np.add.at(self._link_stall, self._req_link[act[~keep]], 1)
            if w_act.size:
                self._grant_winners(now, act, slot, okey, nxt, c_idx, w)
            return
        dmask = dirty[slot]
        if dmask.all():
            self._allocate_dirty(now, act)
            return
        # Mixed cycle: grant the clean-slot winners in one pass, then
        # sweep the dirty slots sequentially.  The sweep corrects its
        # credit reads via ``_popped``: a clean pop at slot >= the
        # sweep's current slot is not yet visible in the serial slot
        # order (pops are the only cross-slot credit interaction — see
        # above).  Dropped heads in dirty slots go to the sweep
        # untouched (it re-derives their stall); dropped heads in clean
        # slots are counted here.
        cmask = ~dmask
        if keep is not None:
            drop_clean = cmask & ~keep
            if drop_clean.any():
                np.add.at(
                    self._link_stall, self._req_link[act[drop_clean]], 1
                )
        wkeep = ~dirty[w_slot]
        g_act = w_act[wkeep]
        if g_act.size:
            wk = np.flatnonzero(wkeep)
            gsel = wk if w is None else w[wk]
            self._grant_winners(now, act, slot, okey, nxt, c_idx, gsel)
            self._popped[g_act] = True
            self._allocate_dirty(now, act[dmask], popped=self._popped)
            self._popped[g_act] = False
        else:
            self._allocate_dirty(now, act[dmask])

    def _pick_winners(self, act, slot, okey) -> Optional[np.ndarray]:
        """Vectorized rotating-priority output arbitration (no commit).

        Serial semantics: every output port's candidates are gathered in
        ascending buffer order and the winner is the first at-or-after
        the port's round-robin pointer — i.e. the candidate minimising
        ``(rel - ptr) mod stride``.  Losers are untouched: no grant, no
        stall, no pointer update.  Returns positions of the winners
        within ``act`` (ascending), or ``None`` when every candidate
        wins (uncontended ports).
        """
        if act.size < 2:
            return None
        stride = self._stride
        rel = act - slot * stride
        mod = rel - self._rr[okey]
        mod[mod < 0] += stride
        order = np.argsort(okey * stride + mod)
        ok_s = okey[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        np.not_equal(ok_s[1:], ok_s[:-1], out=first[1:])
        if first.all():
            return None
        win = order[first]
        win.sort()
        return win

    def _grant_winners(self, now, act, slot, okey, nxt, c_idx, w) -> None:
        """Commit arbitration winners: compose the candidate filter
        (``c_idx``) and winner positions (``w``) and grant in ascending
        union order."""
        if c_idx is None:
            sel = w
        elif w is None:
            sel = c_idx
        else:
            sel = c_idx[w]
        if sel is None:
            self._grant_all(now, act, slot, okey, nxt)
        else:
            self._grant_all(
                now, act[sel], slot[sel], okey[sel], nxt[sel]
            )

    def _grant_all(self, now, act, slot, okey, nxt) -> None:
        """Clean-cycle vectorized grant: every head request wins.

        Safe exactly when the cleanliness test passed: every request has
        credit up front, output ports are uncontended (so each port's
        single candidate is its round-robin winner), and no input port
        exceeds its speedup — the sequential sweep would grant the same
        set, in the same ascending order.
        """
        N = self._n
        cap = self._cap
        self._rr[okey] = act - slot * self._stride + 1
        head = self._fhead[act]
        pid = self._fifo[act * cap + head]
        newlen = self._flen[act] - 1
        self._flen[act] = newlen
        head = head + 1
        head[head == cap] = 0
        self._fhead[act] = head
        self._free[act] += 1
        lanes = act // self._n_bufs
        g = np.bincount(lanes, minlength=N)
        self._n_flying += g
        self._n_buffered -= g
        in_link = self._pk_link[pid]
        m = in_link >= 0
        if m.any():
            # Several buffered flits can share a last-travelled link;
            # a bincount subtraction handles the duplicates (and beats
            # the unbuffered scatter once batches grow).
            dec = in_link[m]
            if dec.size > 24:
                self._occ -= np.bincount(dec, minlength=self._occ.size)
            else:
                np.subtract.at(self._occ, dec, 1)
        self._pk_dest[pid] = nxt
        links = self._req_link[act]
        # One grant per output port, so the granted links (ejection links
        # included) are unique: fancy add exact.
        self._link_fwd[links] += 1
        fm = nxt >= 0
        if fm.any():
            wl = links[fm]
            self._free[nxt[fm]] -= 1
            self._occ[wl] += 1
            fpid = pid[fm]
            self._pk_link[fpid] = wl
            self._pk_hop[fpid] += 1
        self._cal[(now + self._cl) % self._calP].append(pid)
        rem = newlen > 0
        if rem.any():
            b2 = act[rem]
            self._refresh_memo(b2, self._fifo[b2 * cap + self._fhead[b2]])

    def _allocate_dirty(
        self, now: int, act: np.ndarray, popped: Optional[np.ndarray] = None
    ) -> None:
        """Contended-slot exact sequential sweep of the union network.

        Reproduces the fast core's per-switch arbitration slot by slot in
        ascending order: within one lane that is exactly the serial
        switch order, and lanes never share buffers, credits or
        round-robin pointers, so the union sweep equals N serial sweeps.

        On mixed cycles ``act`` holds only the dirty slots' requests and
        ``popped`` flags the buffers the vectorized clean pass already
        popped; a pop at slot >= the sweep's position is then subtracted
        from the credit read, restoring the serial order's view.
        """
        free = self._free
        rr = self._rr
        fifo, fhead, flen, cap = self._fifo, self._fhead, self._flen, self._cap
        req_out, req_nxt, req_link = self._req_out, self._req_nxt, self._req_link
        pk_rid, pk_hop, pk_link = self._pk_rid, self._pk_hop, self._pk_link
        pk_dest, pk_dst = self._pk_dest, self._pk_dst
        t = self._t
        r_off, r_hops = t.r_off, t.r_hops
        rf_out, rf_nxt, rf_link = t.rf_out, t.rf_nxt, t.rf_link
        eject_of = self._eject_of
        occ = self._occ
        ej_lb = self._ej_lbase
        stride = self._stride
        n_ports = self.n_ports
        n_sw = self._n_sw
        n_bufs = self._n_bufs
        n_links = self._n_links
        speedup = self.config.input_speedup
        bucket = self._cal[(now + self._cl) % self._calP]
        N = self._n
        # Links sent onto and stalled on this sweep, counted in bulk at
        # the end (one grant per output port: sent links are unique).
        sent: List[int] = []
        stalled: List[int] = []
        grants_l = [0] * N
        act_l = act.tolist()
        ro_l = req_out[act].tolist()
        rn_l = req_nxt[act].tolist()
        rl_l = req_link[act].tolist()
        ip_l = self._inport_g[act].tolist()
        pbuf = self._port_cands
        touched = self._touched
        gin = self._gin
        gwin = self._gwin
        n = len(act_l)
        i = 0
        while i < n:
            slot = act_l[i] // stride
            lane = slot // n_sw
            base_buf = slot * stride
            j = i
            while j < n and act_l[j] < base_buf + stride:
                fi = act_l[j]
                tgt = rn_l[j]
                if tgt >= 0:
                    credit = free[tgt]
                    if popped is not None and tgt >= base_buf and popped[tgt]:
                        credit -= 1
                    if credit <= 0:
                        stalled.append(rl_l[j])
                        j += 1
                        continue
                op = ro_l[j]
                cands = pbuf[op]
                if not cands:
                    touched.append(op)
                cands.append((fi, j))
                j += 1
            i = j
            if not touched:
                continue
            rr_base = slot * n_ports
            loff = lane * n_bufs
            locc = lane * n_links
            for op in touched:
                gathered = cands = pbuf[op]
                rr_key = rr_base + op
                ptr = int(rr[rr_key])
                if len(cands) > 1 and ptr:
                    # cands is in ascending flat-index order; rotating at
                    # the pointer equals sorting by (fi - ptr) % stride.
                    cut = bisect_left(cands, (base_buf + ptr,))
                    if 0 < cut < len(cands):
                        cands = cands[cut:] + cands[:cut]
                winner = -1
                for fi, jj in cands:
                    ip = ip_l[jj]
                    if gin[ip] >= speedup:
                        continue
                    winner = fi
                    wj = jj
                    break
                gathered.clear()
                if winner < 0:
                    continue
                gin[ip] += 1
                gwin.append(ip)
                rr[rr_key] = winner - base_buf + 1

                tgt = rn_l[wj]
                wl = rl_l[wj]
                head = int(fhead[winner])
                pid = int(fifo[winner * cap + head])
                length = int(flen[winner]) - 1
                flen[winner] = length
                head += 1
                if head == cap:
                    head = 0
                fhead[winner] = head
                if length:
                    npid = int(fifo[winner * cap + head])
                    nrid = int(pk_rid[npid])
                    nhop = int(pk_hop[npid])
                    if nhop < r_hops[nrid]:
                        nb = r_off[nrid] + nhop
                        req_out[winner] = rf_out[nb]
                        req_nxt[winner] = rf_nxt[nb] + loff
                        req_link[winner] = rf_link[nb] + locc
                    else:
                        d = int(pk_dst[npid])
                        req_out[winner] = eject_of[d]
                        req_nxt[winner] = -1
                        req_link[winner] = locc + ej_lb + d
                free[winner] += 1
                grants_l[lane] += 1
                il = int(pk_link[pid])
                if il >= 0:
                    occ[il] -= 1
                sent.append(wl)
                if tgt < 0:
                    pk_dest[pid] = -1
                    bucket.append(pid)
                else:
                    free[tgt] -= 1
                    occ[wl] += 1
                    pk_link[pid] = wl
                    pk_hop[pid] += 1
                    pk_dest[pid] = tgt
                    bucket.append(pid)
            touched.clear()
            if gwin:
                for ip in gwin:
                    gin[ip] = 0
                gwin.clear()
        if sent:
            self._link_fwd[sent] += 1
        if stalled:
            np.add.at(self._link_stall, stalled, 1)
        g = np.asarray(grants_l, dtype=np.int64)
        self._n_flying += g
        self._n_buffered -= g

    # ---------------------------------------------------------------- run
    #: The serial engines' window-chunked cycle loop, over every lane.
    _advance = Simulator._advance

    def _occupancy_view(self) -> np.ndarray:
        """Live union per-link occupancy (the link-state peak reads it)."""
        return self._occ

    def _buffered_per_lane(self) -> np.ndarray:
        caps = self._n_bufs * self._cap
        return caps - np.add.reduceat(self._free, self._lane_starts)

    def _counts(self) -> tuple:
        """Every lane's counts, in fresh arrays (see WindowRows)."""
        shape = (self._n, self._n_links)
        return (
            self._injected.copy(), self._delivered.copy(),
            self._lat_total.copy(), self._link_fwd.reshape(shape).copy(),
            self._link_stall.reshape(shape).copy(),
        )

    def _flush(self, win: WindowRows, now: int) -> None:
        """Buffer ``win``'s rows covering ``[win.start, now)``, one per lane."""
        if win.linkstate:
            bufs, extra = self._ls_rows, self._ls_peak
        else:
            bufs, extra = self._ts_rows, self._buffered_per_lane()
        rows = win.rows(now, self._counts(), self._n_sl, extra)
        for buf, row in zip(bufs, rows):
            buf.append(row)
        if rows and win.linkstate:
            # Peak carries over: the next window opens at current occupancy.
            self._ls_peak[:] = self._occ

    def run(
        self, publish: bool = True, observe: Optional[bool] = None
    ) -> List[SimResult]:
        """Step every lane through warmup + measurement; one result per lane.

        With ``publish`` (the default) each lane's telemetry is replayed
        into the active metrics registry / time-series recorder in lane
        order, exactly as N sequential serial runs would have published.
        The saturation search passes ``publish=False`` and replays each lane
        under its own capture instead (per-lane artifact splitting);
        because those captures are not active *during* the run, it also
        passes ``observe=True`` to keep VC-occupancy sampling on.
        """
        cfg = self.config
        if observe is None:
            observe = metrics.enabled()
        t_wall = time.perf_counter()
        self._refresh_tables()
        self._advance(0, cfg.warmup_cycles)
        n_sl = self._n_sl
        sent = self._link_fwd.reshape(self._n, self._n_links)
        warm = sent[:, :n_sl].copy()
        start = cfg.warmup_cycles
        for _ in range(cfg.n_samples):
            self._advance(start, start + cfg.sample_cycles)
            start += cfg.sample_cycles
            if observe:
                buf = self._buffered_per_lane()
                for lane in range(self._n):
                    self._occ_samples[lane].append(int(buf[lane]))
        for w in self._windows:
            self._flush(w, start)  # the final, possibly partial window
        wall = time.perf_counter() - t_wall
        # Aggregate lane-cycles per wall second (the batched tier's
        # throughput figure; manifests record it per engine).
        self.cycles_per_sec = (
            self._end_cycle * self._n / wall if wall > 0 else 0.0
        )
        # One list->array conversion for the measured-latency samples,
        # shared by every lane's result extraction.
        self._mlat_ml = np.asarray(self._mlat_lane, dtype=np.int64)
        self._mlat_vl = np.asarray(self._mlat_val, dtype=np.int64)
        self._mlat_pl = np.asarray(self._mlat_pair, dtype=np.int64)
        # Link utilisation counts the flits sent after warmup.
        link_flits = sent[:, :n_sl] - warm
        self.results = [
            build_result(
                cfg, self._rates[lane], int(self._injected[lane]),
                int(self._delivered[lane]),
                self._sample_sums[lane].tolist(),
                self._sample_counts[lane].tolist(),
                self._mlat_vl[self._mlat_ml == lane],
                link_flits[lane], len(self._hosts[lane]),
            )
            for lane in range(self._n)
        ]
        # Freeze run-end counter values: the serial engine publishes its
        # metrics before drain(), so deferred per-lane publishes must not
        # see drain-time growth of these totals.
        self._pub = (
            np.stack([self._injected, self._delivered, self.flits_forwarded,
                      self.credit_stalls]),
            link_flits,
        )
        if publish:
            for lane in range(self._n):
                self.publish_lane(lane)
        return self.results

    # ------------------------------------------------------------ publish
    def publish_lane(self, lane: int) -> None:
        """Replay one lane's telemetry into the active registry/recorders.

        Safe to call under a per-lane capture (the grid's artifact
        splitting) or once per lane in lane order (the serial-equivalent
        default) — either way each lane's artifacts are byte-identical
        to the serial run's: the lane goes through the serial engines'
        own register / close / publish functions.
        """
        if self._pub is None:
            raise SimulationError("publish_lane() requires a completed run()")
        reg = metrics.active()
        if reg is not None:
            # The path-cache counts the serial run would have made during
            # construction and launch, ahead of its run-end publication.
            reg.merge(self._pre_snaps[lane])
            for snap in self._lazy_snaps[lane]:
                reg.merge(snap)
            hits = int(self._lane_hits[lane])
            if hits:
                reg.counter("core.cache.hit").inc(hits)
        result = self.results[lane]
        counts, link_flits = self._pub
        publish_run(
            reg, result, self.engine_name, self._scheme, self.cycles_per_sec,
            counts[:, lane].tolist(), self._occ_samples[lane],
            link_flits[lane],
        )
        # Only layers that were on during the run have rows to replay.
        ts = obs_timeseries.active() if self._ts is not None else None
        ls = obs_linkstate.active() if self._ls is not None else None
        fs = obs_flowstats.active() if self._fs_on else None
        ts_run, ls_run, fs_run = register_run(
            self.topology, self.config, self._scheme,
            self._mech_names[lane], self._rates[lane], ts, ls, fs,
        )
        if ts is not None:
            for row in self._ts_rows[lane]:
                ts.record_window(ts_run, **row)
        if ls is not None:
            for row in self._ls_rows[lane]:
                ls.record_window(ls_run, **row)
        if fs is not None:
            mask = self._mlat_ml == lane
            fs.record_run(fs_run, self._mlat_pl[mask], self._mlat_vl[mask])

    # -------------------------------------------------------------- drain
    def drain(self) -> List[int]:
        """Drain every lane; per-lane extra cycle counts, serial-identical.

        Lanes empty out at different times: a drained lane is masked out
        of every phase (its counters and RNG freeze exactly where the
        serial run's would), and the allocator's scan compacts to the
        remaining lanes' rows.  Raises :class:`SimulationError` if any
        lane fails to drain within ``config.drain_max_cycles`` — after
        recording the lanes that did finish, so conservation checks still
        hold per lane.
        """
        cfg = self.config
        self._draining = True
        start = self._end_cycle
        out = [-1] * self._n
        live = sorted(self._live)
        for now in range(start, start + cfg.drain_max_cycles):
            still = []
            for lane in live:
                if (
                    self._n_sourced[lane]
                    + self._n_flying[lane]
                    + self._n_buffered[lane]
                ):
                    still.append(lane)
                else:
                    out[lane] = now - start
            live = still
            self._live = live
            if not live:
                return out
            self._process_arrivals(now)
            self._launch_from_sources(now)
            self._allocate(now)
        stuck = []
        for lane in live:
            flight = int(
                self._n_sourced[lane]
                + self._n_flying[lane]
                + self._n_buffered[lane]
            )
            if flight:
                stuck.append((lane, flight))
            else:
                out[lane] = cfg.drain_max_cycles
        self._live = [lane for lane in live if out[lane] < 0]
        if stuck:
            detail = ", ".join(f"lane {l}: {n}" for l, n in stuck)
            raise SimulationError(
                f"network failed to drain within {cfg.drain_max_cycles} "
                f"cycles: {detail} packets stuck"
            )
        return out

    # ------------------------------------------------------- diagnostics
    def in_flight(self, lane: Optional[int] = None) -> int:
        """Packets inside the network or its queues (one lane or all)."""
        if lane is None:
            return int(
                self._n_sourced.sum()
                + self._n_flying.sum()
                + self._n_buffered.sum()
            )
        return int(
            self._n_sourced[lane]
            + self._n_flying[lane]
            + self._n_buffered[lane]
        )

    @property
    def injected(self) -> np.ndarray:
        return self._injected

    @property
    def delivered(self) -> np.ndarray:
        return self._delivered

    @property
    def flits_forwarded(self) -> np.ndarray:
        """Per lane: flits sent onto switch links since cycle 0."""
        sent = self._link_fwd.reshape(self._n, self._n_links)
        return sent[:, : self._n_sl].sum(axis=1)

    @property
    def credit_stalls(self) -> np.ndarray:
        """Per lane: credit stalls since cycle 0."""
        return self._link_stall.reshape(self._n, self._n_links).sum(axis=1)

    def check_conservation(self) -> None:
        """Raise if any lane lost or duplicated a packet."""
        for lane in range(self._n):
            if int(self._injected[lane]) != int(
                self._delivered[lane]
            ) + self.in_flight(lane):
                raise SimulationError(
                    f"conservation violated in lane {lane}: "
                    f"injected={int(self._injected[lane])}, "
                    f"delivered={int(self._delivered[lane])}, "
                    f"in_flight={self.in_flight(lane)}"
                )
