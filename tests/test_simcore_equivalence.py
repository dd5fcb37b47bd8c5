"""Cross-engine equivalence: the fast core must be byte-identical.

``FastSimulator`` (``SimConfig.engine == "fast"``, the default) re-implements
the reference four-phase router on flat arrays — SoA packet store, CSR route
tables, ring-buffer VC FIFOs, a calendar queue for channel arrivals — and is
only correct if it is *indistinguishable* from the reference core: same
``SimResult`` (minus the config it echoes), same drain length, same final RNG
state (every random draw happened in the same order), same path-cache
hit/miss counts, and bitwise-identical telemetry artifacts (metrics
snapshots, trace ``.npz``, time-series ``.npz``).

These tests pin that contract across all six routing mechanisms, uniform and
pattern traffic, the time-series steady-state report, cold and
pre-warmed path caches, both adaptive latency estimates, and traced runs
(tracing forces the fast core onto its scalar launch fallback and turns on
its flight-recorder events, credit stalls inside a saturated network
included).

The ring-buffer edge tests at the bottom are the fast core's own unit
coverage: FIFO wraparound under full occupancy, credit exhaustion at
capacity 1, and drain-budget exhaustion.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import SimulationError
from repro.netsim import SimConfig, Simulator, UniformTraffic, PatternTraffic
from repro.netsim.batchcore import BatchLane, BatchSimulator
from repro.netsim.fastcore import FastSimulator
from repro.obs import flowstats, linkstate, metrics, timeseries, trace
from repro.obs.timeseries import steady_state_report
from repro.traffic import random_permutation

MECHANISMS = ["sp", "random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive"]

#: Short but non-trivial: long enough for credit stalls, misroutes and
#: adaptive decisions to occur, short enough to run 6 mechanisms x 2
#: traffics x 2 engines in seconds.
CYCLES = dict(warmup_cycles=60, sample_cycles=60, n_samples=2)
#: A saturated network: tiny buffers at load 0.9 keep switch buffers full,
#: so head-of-line flits stall for credit inside the network.
SATURATED = dict(rate=0.9, vc_buffer=2)
#: The mechanisms that compare latency estimates of candidate paths.
ADAPTIVE = ["ugal", "ksp_ugal", "ksp_adaptive"]


def _topo():
    return Jellyfish(8, 8, 5, seed=3)  # 24 hosts


def _traffic(kind, n_hosts):
    if kind == "uniform":
        return UniformTraffic(n_hosts)
    return PatternTraffic(random_permutation(n_hosts, seed=5))


def _run(engine, mechanism, traffic_kind, *, rate=0.4, vc_buffer=None,
         prewarm=False, adaptive_estimate=None):
    """One full run on ``engine``; returns (fingerprint, simulator)."""
    topo = _topo()
    paths = PathCache(topo, "redksp", k=4, seed=1)
    if prewarm:
        # Includes s == d: hosts sharing a switch still route via the cache.
        for s in range(topo.n_switches):
            for d in range(topo.n_switches):
                paths.get(s, d)
        paths.hits = paths.misses = 0
    knobs = dict(CYCLES, engine=engine)
    if vc_buffer is not None:
        knobs["vc_buffer"] = vc_buffer
    if adaptive_estimate is not None:
        knobs["adaptive_estimate"] = adaptive_estimate
    cfg = SimConfig(**knobs)
    sim = Simulator(
        topo, paths, mechanism, _traffic(traffic_kind, topo.n_hosts),
        rate, cfg, seed=11,
    )
    result = sim.run()
    extra = sim.drain()
    sim.check_conservation()
    doc = dataclasses.asdict(result)
    doc.pop("config")  # echoes engine name; everything else must match
    fingerprint = {
        "result": doc,
        "drain_cycles": extra,
        "credit_stalls": sim.credit_stalls,
        "rng_state": sim.rng.bit_generator.state,
        "cache": (paths.hits, paths.misses),
    }
    return fingerprint, sim


def _assert_equivalent(mechanism, traffic_kind, **kwargs):
    fast, fsim = _run("fast", mechanism, traffic_kind, **kwargs)
    ref, rsim = _run("reference", mechanism, traffic_kind, **kwargs)
    assert isinstance(fsim, FastSimulator) and fsim.engine_name == "fast"
    assert type(rsim) is Simulator and rsim.engine_name == "reference"
    assert fast == ref
    return fast


def _assert_steady_report_equivalent(mechanism, traffic_kind):
    """Both engines record the same time series with the recorder on, so
    the steady-state (warmup-sufficiency) report over it agrees too."""
    docs = {}
    for engine in ("fast", "reference"):
        with timeseries.capture(window=15) as rec:
            fingerprint, _ = _run(engine, mechanism, traffic_kind)
        snap = rec.snapshot()
        docs[engine] = (
            fingerprint,
            _canon(dict(snap, runs=json.dumps(snap["runs"]))),
            steady_state_report(snap, check_windows=2),
        )
    assert docs["fast"] == docs["reference"]
    # 180 cycles in 15-cycle windows: every window of the run is compared.
    assert docs["fast"][2]["n_runs"] == 1
    assert int(docs["fast"][1]["n_windows"]) == 12


class TestResultEquivalence:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_uniform_traffic(self, mechanism):
        _assert_equivalent(mechanism, "uniform")

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_pattern_traffic(self, mechanism):
        _assert_equivalent(mechanism, "perm")

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_steady_state_uniform(self, mechanism):
        _assert_steady_report_equivalent(mechanism, "uniform")

    @pytest.mark.parametrize("mechanism", ["sp", "ksp_ugal", "ksp_adaptive"])
    def test_steady_state_pattern(self, mechanism):
        _assert_steady_report_equivalent(mechanism, "perm")

    def test_high_load_saturation(self):
        # Near saturation the VC ladder, misrouting and credit stalls all
        # work much harder; equivalence must survive the stress.
        fp = _assert_equivalent("ksp_adaptive", "uniform", rate=0.9)
        assert fp["credit_stalls"] > 0

    @pytest.mark.parametrize("traffic_kind", ["uniform", "perm"])
    @pytest.mark.parametrize("mechanism", ADAPTIVE)
    def test_first_link_estimate(self, mechanism, traffic_kind):
        # The classic UGAL-L estimate (first channel's queue x hops), the
        # one the ablation runs; every other case uses the whole-path one.
        _assert_equivalent(mechanism, traffic_kind, adaptive_estimate="first")

    def test_prewarmed_cache_all_hits(self):
        # A fully warmed cache gives the fast core's launch a warm pair
        # record from cycle 0; the cold-cache matrix above exercises
        # record building in the launch gather + incremental table
        # growth instead.
        fp = _assert_equivalent("ksp_adaptive", "uniform", prewarm=True)
        hits, misses = fp["cache"]
        assert misses == 0 and hits > 0


class TestTelemetryEquivalence:
    """The artifacts a run writes must not depend on the engine."""

    def _strip_engine_keys(self, snap):
        doc = {k: v for k, v in snap.items() if k != "timers"}
        doc["counters"] = {
            k: v for k, v in snap.get("counters", {}).items()
            if not k.startswith("netsim.engine_runs/")
        }
        doc["gauges"] = {
            k: v for k, v in snap.get("gauges", {}).items()
            if not k.startswith("netsim.cycles_per_sec/")
        }
        return doc

    def _metrics_snapshot(self, engine):
        with metrics.capture() as reg:
            _run(engine, "ksp_adaptive", "uniform")
            return self._strip_engine_keys(reg.snapshot())

    def test_metrics_snapshots_identical(self):
        fast = self._metrics_snapshot("fast")
        ref = self._metrics_snapshot("reference")
        assert fast == ref

    def test_metrics_stamp_engine_identity(self):
        with metrics.capture() as reg:
            _run("fast", "random", "uniform")
            counters = reg.snapshot()["counters"]
        assert counters.get("netsim.engine_runs/fast") == 1
        assert "netsim.engine_runs/reference" not in counters

    def _trace_bytes(self, engine, tmp_path, mechanism="ksp_adaptive", **load):
        # Tracing keeps stalled hosts in the fast core's launch gather
        # and turns on its flight-recorder events in the launch, arrival
        # and allocation loops — this doubles as the equivalence check
        # for those events.
        with trace.capture(sample=16):
            _run(engine, mechanism, "uniform", **load)
            out = trace.save_trace(tmp_path / f"{engine}.npz")
        return out.read_bytes()

    @pytest.mark.parametrize(
        "mechanism, load",
        [("ksp_adaptive", {})] + [(m, SATURATED) for m in MECHANISMS],
        ids=["rate0.4-ksp_adaptive"] + [f"sat-{m}" for m in MECHANISMS],
    )
    def test_trace_npz_byte_identical(self, tmp_path, mechanism, load):
        assert self._trace_bytes("fast", tmp_path, mechanism, **load) == \
            self._trace_bytes("reference", tmp_path, mechanism, **load)
        if load:
            # Not vacuous: some traced flit stalled for credit inside the
            # network (source-queue stalls are all recorded at VC 0).
            ev = trace.load_trace(tmp_path / "fast.npz")
            stalled = ev["ev_kind"] == trace.EV_CREDIT_STALL
            assert (ev["ev_vc"][stalled] > 0).any()

    def _timeseries_bytes(self, engine, tmp_path):
        with timeseries.capture(window=30):
            _run(engine, "ugal", "uniform")
            out = timeseries.save_timeseries(tmp_path / f"{engine}.npz")
        return out.read_bytes()

    def test_timeseries_npz_byte_identical(self, tmp_path):
        assert self._timeseries_bytes("fast", tmp_path) == \
            self._timeseries_bytes("reference", tmp_path)


def _canon(value):
    """A platform-stable form of a result or snapshot: floats to 12
    significant digits, arrays as dtype, shape and a hash of their bytes."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return [value.dtype.str, list(value.shape),
                hashlib.sha256(data).hexdigest()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _run_record_digest(results, reg, recorders):
    """One SHA-256 over a case's whole run record (see TestRunRecordPinned)."""
    snap = reg.snapshot()
    snap.pop("timers")
    snap["gauges"] = {
        k: v for k, v in snap["gauges"].items()
        if not k.startswith("netsim.cycles_per_sec/")
    }
    rec_snaps = {name: rec.snapshot() for name, rec in recorders}
    doc = {
        "results": [
            _canon({k: v for k, v in dataclasses.asdict(r).items()
                    if k != "config"})
            for r in results
        ],
        "metrics": _canon(snap),
        "recorders": {
            name: _canon(dict(s, runs=json.dumps(s["runs"])))
            for name, s in rec_snaps.items()
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestRunRecordPinned:
    """Every engine's run record, pinned to fixed bytes.

    The suites above compare the engines with each other, so a change
    made to every engine alike (a moved recorder metadata key, a renamed
    counter) passes them.  These digests do not: each hashes the
    ``SimResult`` fields without ``config``, the metrics snapshot without
    timers and wall-clock cycles/sec gauges, and every recorder snapshot
    (its ``runs`` metadata in key order).  The saved ``.npz`` bytes are
    not hashed, because their compression depends on the zlib build.
    """

    DIGESTS = {
        "reference": "f81ea135ad0100e49d3ab919a0b0c525726fe961e957a00a9c337ea53e89a60d",
        "fast": "0ea9f049d173155764c635774e9e0d85df088abcc8b423391d96b0621d1cce8d",
        "batched": "8db4eded72dbd79be6fce0bd45680a7ae0b1276937f4f5c7e7715f915b432bd8",
    }

    @staticmethod
    def _run(case):
        topo = _topo()
        paths = PathCache(topo, "redksp", k=4, seed=1)
        perm = _traffic("perm", topo.n_hosts)
        if case == "reference":
            cfg = SimConfig(**CYCLES, engine="reference")
            sim = Simulator(topo, paths, "ksp_adaptive",
                            UniformTraffic(topo.n_hosts), 0.4, cfg, seed=11)
            return [sim.run()]
        if case == "fast":
            cfg = SimConfig(warmup_cycles=0, sample_cycles=7, n_samples=3)
            sim = Simulator(topo, paths, "round_robin", perm, 0.9, cfg,
                            seed=11)
            return [sim.run()]
        lanes = [BatchLane("ksp_adaptive", perm, 0.4, seed=11),
                 BatchLane("ksp_ugal", perm, 0.9, seed=12)]
        return BatchSimulator(topo, paths, lanes, SimConfig(**CYCLES)).run()

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_run_record_digest(self, case):
        with metrics.capture() as reg, timeseries.capture(window=25) as ts, \
                linkstate.capture(window=25) as ls, flowstats.capture() as fs:
            results = self._run(case)
        recorders = [("timeseries", ts), ("linkstate", ls), ("flowstats", fs)]
        assert all(len(rec.runs) == len(results) for _, rec in recorders)
        assert _run_record_digest(results, reg, recorders) == \
            self.DIGESTS[case]


class TestRingBufferEdges:
    """Unit coverage of the fast core's flat ring-buffer FIFOs."""

    def test_wraparound_under_full_occupancy(self):
        # Tiny buffers at high load keep FIFOs pinned at capacity, so
        # heads must wrap the ring repeatedly without corrupting order —
        # checked against the reference core's list-based FIFOs.
        fp = _assert_equivalent(
            "ksp_adaptive", "uniform", rate=0.9, vc_buffer=2,
        )
        assert fp["credit_stalls"] > 0
        _, sim = _run("fast", "ksp_adaptive", "uniform", rate=0.9,
                      vc_buffer=2)
        # Post-drain the rings are empty with heads somewhere mid-ring.
        assert all(n == 0 for n in sim._flen)
        assert all(0 <= h < sim._cap for h in sim._fhead)
        assert any(h != 0 for h in sim._fhead)

    def test_credit_exhaustion_at_capacity_one(self):
        # vc_buffer=1 makes every occupied buffer credit-exhausted; the
        # single-slot ring degenerates to head==0 always.
        fp = _assert_equivalent(
            "random", "uniform", rate=0.8, vc_buffer=1,
        )
        assert fp["credit_stalls"] > 0
        _, sim = _run("fast", "random", "uniform", rate=0.8, vc_buffer=1)
        assert sim._cap == 1
        assert all(h == 0 for h in sim._fhead)
        assert all(n == 0 for n in sim._flen)

    def test_drain_budget_exhaustion_raises(self):
        # Mirror of the reference engine's drain-budget test: one cycle
        # can never empty a loaded network, and the failed drain must
        # not lose packets.
        topo = _topo()
        paths = PathCache(topo, "redksp", k=4, seed=1)
        cfg = SimConfig(
            warmup_cycles=100, sample_cycles=100, n_samples=3,
            drain_max_cycles=1,
        )
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.9,
            cfg, seed=1,
        )
        assert isinstance(sim, FastSimulator)
        sim.run()
        assert sim.in_flight() > 0
        with pytest.raises(SimulationError, match="failed to drain"):
            sim.drain()
        sim.check_conservation()

    def test_buffers_never_exceed_capacity_mid_run(self):
        # Sample occupancy mid-flight (not just post-drain): stop after
        # warmup only, while the network is still loaded.
        topo = _topo()
        paths = PathCache(topo, "redksp", k=4, seed=1)
        cfg = SimConfig(warmup_cycles=80, sample_cycles=1, n_samples=1,
                        vc_buffer=2)
        sim = Simulator(
            topo, paths, "ksp_adaptive", UniformTraffic(topo.n_hosts),
            0.9, cfg, seed=7,
        )
        sim.run()
        assert sim.in_flight() > 0
        assert all(0 <= n <= sim._cap for n in sim._flen)
        assert sim.credit_stalls > 0  # load actually filled rings to cap
        sim.drain()
        sim.check_conservation()
