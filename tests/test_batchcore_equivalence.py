"""Batched-engine equivalence: every lane must be byte-identical serial.

``BatchSimulator`` (:mod:`repro.netsim.batchcore`) steps N independent
runs in lock-step numpy lanes, and is only correct if each lane is
*indistinguishable* from running that lane's configuration alone on the
serial fast engine, in lane order, on one shared path cache: same
``SimResult`` (minus the echoed config), same drain length, same final
RNG state (every random draw replayed bit-exactly), same path-cache
hit/miss totals, and bitwise-identical telemetry artifacts (metrics
snapshots, time-series ``.npz``).

The serial reference for an N-lane batch is N sequential fast-engine
runs sharing one ``PathCache``: construct lane 0 (warming the cache for
its traffic), run it, drain it, then lane 1, and so on — exactly the
execution the batched grid tier replaces.

Mechanisms batch in (scheme, n_vcs) groups: ``sp`` / ``random`` /
``round_robin`` bound their VC ladder by switch count while the ``ksp_*``
mechanisms bound it by the longest cached path, so the matrix runs one
group of each (5 mechanisms x uniform/permutation traffic x mixed rates
and seeds) plus the mixing error.  The edge-case classes at the bottom
pin the lane-masking semantics: a single-lane batch equals the plain
fast engine, lanes finishing drain in non-monotonic order stay exact,
and a lane exhausting the drain budget mid-batch raises without losing
packets.

On telemetry mismatches the failing artifacts are dumped under
``BATCH_EQ_ARTIFACTS`` (default ``batch-eq-artifacts/``) so CI can
upload them for inspection.
"""

import dataclasses
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError, SimulationError
from repro.netsim import SimConfig, Simulator, UniformTraffic, PatternTraffic
from repro.netsim.batchcore import BatchLane, BatchSimulator
from repro.netsim.fastcore import FastSimulator
from repro.netsim import parallel, sweep
from repro.netsim.parallel import run_saturation_grid
from repro.obs import flowstats, layers, linkstate, metrics, timeseries, trace
from repro.obs.trace import TraceAnalysis
from repro.traffic import random_permutation

CYCLES = dict(warmup_cycles=60, sample_cycles=60, n_samples=2)

#: One batchable group per VC-ladder bound (mechanisms must agree on
#: n_vcs to share a buffer layout; see BatchSimulator).
GROUPS = {
    "hopcap": ["sp", "random", "round_robin"],
    "ksp": ["ksp_ugal", "ksp_adaptive"],
}


def _topo():
    return Jellyfish(8, 8, 5, seed=3)  # 24 hosts


def _traffic(kind, n_hosts):
    if kind == "uniform":
        return UniformTraffic(n_hosts)
    return PatternTraffic(random_permutation(n_hosts, seed=5))


def _lane_specs(group, n_hosts):
    """Mechanisms x traffics with varied rates and seeds (one n_vcs group)."""
    lanes = []
    for i, mechanism in enumerate(GROUPS[group]):
        for j, kind in enumerate(("uniform", "perm")):
            lanes.append(
                BatchLane(
                    mechanism,
                    _traffic(kind, n_hosts),
                    injection_rate=0.3 + 0.1 * ((i + j) % 3),
                    seed=11 + 2 * i + j,
                )
            )
    return lanes


def _lane_fingerprint(result, drain_cycles, stalls, rng):
    doc = dataclasses.asdict(result)
    doc.pop("config")  # echoes batch_lanes; everything else must match
    return {
        "result": doc,
        "drain_cycles": drain_cycles,
        "credit_stalls": stalls,
        "rng_state": rng.bit_generator.state,
    }


def _run_serial(lanes, knobs=CYCLES, drain=True):
    """The serial reference: N sequential fast runs on one shared cache."""
    topo = _topo()
    paths = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(**knobs, engine="fast")
    fps = []
    for lane in lanes:
        sim = Simulator(
            topo, paths, lane.mechanism, lane.traffic,
            lane.injection_rate, cfg, seed=lane.seed,
        )
        assert isinstance(sim, FastSimulator)
        result = sim.run()
        extra = sim.drain() if drain else -1
        sim.check_conservation()
        fps.append(
            _lane_fingerprint(result, extra, sim.credit_stalls, sim.rng)
        )
    return fps, (paths.hits, paths.misses)


def _run_batch(lanes, knobs=CYCLES, drain=True, publish=True, observe=None):
    topo = _topo()
    paths = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(**knobs, engine="fast", batch_lanes=len(lanes))
    batch = BatchSimulator(topo, paths, lanes, cfg)
    results = batch.run(publish=publish, observe=observe)
    drains = batch.drain() if drain else [-1] * len(lanes)
    batch.check_conservation()
    fps = [
        _lane_fingerprint(
            results[i], drains[i], int(batch.credit_stalls[i]), batch.rngs[i]
        )
        for i in range(len(lanes))
    ]
    return fps, (paths.hits, paths.misses), batch


def _assert_equivalent(lanes, knobs=CYCLES):
    serial, scache = _run_serial(lanes, knobs)
    batch, bcache, sim = _run_batch(lanes, knobs, publish=False)
    assert sim.engine_name == "batched"
    for i, (s, b) in enumerate(zip(serial, batch)):
        assert s == b, f"lane {i} diverged from its serial run"
    assert scache == bcache
    return batch


def _strip_engine_keys(snap):
    """A metrics snapshot without timers and the engine-tier stamps."""
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


class TestLaneEquivalence:
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_mechanism_group(self, group):
        # 6 (or 4) lanes: every mechanism of the group x uniform/perm
        # traffic, rates 0.3-0.5, distinct seeds — each lane must match
        # its serial fast-engine run bit for bit.
        _assert_equivalent(_lane_specs(group, _topo().n_hosts))

    def test_duplicate_lanes_are_independent(self):
        # Identical configs in different lanes must produce identical
        # fingerprints (no cross-lane bleed through shared arrays).
        spec = BatchLane("ksp_adaptive", _traffic("uniform", 24), 0.4, seed=7)
        fps, _, _ = _run_batch([spec, spec, spec])
        assert fps[0] == fps[1] == fps[2]

    @pytest.mark.parametrize(
        "knobs",
        [CYCLES, dict(CYCLES, adaptive_estimate="first")],
        ids=["path", "first"],
    )
    def test_high_load_contention(self, knobs):
        # Near saturation the clean-cycle fast path gives way to the
        # sequential sweep; equivalence must survive heavy contention.
        # Both latency estimates reach the vectorized launch's
        # _est_pair.
        lanes = [
            BatchLane("ksp_adaptive", _traffic("uniform", 24), 0.9, seed=3),
            BatchLane("ksp_ugal", _traffic("perm", 24), 0.85, seed=4),
        ]
        batch = _assert_equivalent(lanes, knobs)
        assert sum(fp["credit_stalls"] for fp in batch) > 0

    def test_tiny_buffers_force_dirty_cycles(self):
        # vc_buffer=2 keeps rings pinned at capacity: rotation, credit
        # exhaustion and within-cycle credit visibility all work hard.
        _assert_equivalent(
            [
                BatchLane("ksp_adaptive", _traffic("uniform", 24), 0.9, seed=3),
                BatchLane("ksp_adaptive", _traffic("perm", 24), 0.7, seed=5),
            ],
            knobs=dict(CYCLES, vc_buffer=2),
        )


class TestTelemetryEquivalence:
    """Published artifacts must not depend on the engine tier."""

    def _dump(self, tag, serial_doc, batch_doc):
        art = Path(os.environ.get("BATCH_EQ_ARTIFACTS", "batch-eq-artifacts"))
        art.mkdir(parents=True, exist_ok=True)
        for name, doc in (("serial", serial_doc), ("batched", batch_doc)):
            path = art / f"{tag}-{name}"
            if isinstance(doc, bytes):
                path.with_suffix(".npz").write_bytes(doc)
            else:
                path.with_suffix(".txt").write_text(repr(doc))
        return art

    def test_metrics_snapshots_identical(self):
        lanes = _lane_specs("ksp", _topo().n_hosts)
        with metrics.capture() as reg:
            _run_serial(lanes)
            serial = _strip_engine_keys(reg.snapshot())
        with metrics.capture() as reg:
            _run_batch(lanes)
            batched = _strip_engine_keys(reg.snapshot())
        if serial != batched:  # pragma: no cover - failure path
            art = self._dump("metrics", serial, batched)
            pytest.fail(f"metrics snapshots diverged (dumped under {art})")

    def test_metrics_stamp_engine_identity(self):
        lanes = _lane_specs("ksp", _topo().n_hosts)
        with metrics.capture() as reg:
            _run_batch(lanes)
            counters = reg.snapshot()["counters"]
            gauges = reg.snapshot()["gauges"]
        assert counters.get("netsim.engine_runs/batched") == len(lanes)
        assert "netsim.engine_runs/fast" not in counters
        assert gauges.get("netsim.cycles_per_sec/batched", 0) > 0

    def test_timeseries_npz_byte_identical(self, tmp_path):
        lanes = _lane_specs("ksp", _topo().n_hosts)
        with timeseries.capture(window=30):
            _run_serial(lanes)
            serial = timeseries.save_timeseries(tmp_path / "serial.npz")
        with timeseries.capture(window=30):
            _run_batch(lanes)
            batched = timeseries.save_timeseries(tmp_path / "batched.npz")
        sb, bb = serial.read_bytes(), batched.read_bytes()
        if sb != bb:  # pragma: no cover - failure path
            art = self._dump("timeseries", sb, bb)
            pytest.fail(f"time-series artifacts diverged (dumped under {art})")

    def test_publish_lane_splits_per_lane(self):
        # The grid tier publishes each lane under its own capture; a
        # lane's split registry must equal what a serial run of that lane
        # would capture at the same point in a shared-cache sequence
        # (later lanes see the cache the earlier ones warmed).
        lanes = [
            BatchLane("ksp_adaptive", _traffic("perm", 24), 0.4, seed=11),
            BatchLane("ksp_ugal", _traffic("perm", 24), 0.3, seed=12),
        ]
        _, _, batch = _run_batch(lanes, publish=False, observe=True)
        splits = []
        for i in range(len(lanes)):
            with metrics.capture() as reg:
                batch.publish_lane(i)
                splits.append(_strip_engine_keys(reg.snapshot()))
        topo = _topo()
        paths = PathCache(topo, "redksp", k=4, seed=1)
        cfg = SimConfig(**CYCLES, engine="fast")
        for i, lane in enumerate(lanes):
            with metrics.capture() as reg:
                sim = Simulator(
                    topo, paths, lane.mechanism, lane.traffic,
                    lane.injection_rate, cfg, seed=lane.seed,
                )
                sim.run()
                solo = _strip_engine_keys(reg.snapshot())
            assert splits[i] == solo, f"lane {i} split diverged"


class TestTracedGridFallback:
    """Tracing forces the per-cell engine without losing correctness.

    The batched engine refuses the flight recorder (per-packet events
    would interleave across lanes), so a traced grid under a
    ``batch_lanes > 1`` config falls back to per-cell runs.  The route-
    membership audit must pass over every packet traced through that
    fallback, and the grid numbers must equal the untraced batched run.
    """

    def test_route_audit_passes_under_batched_config(self):
        topo = _topo()
        pats = [random_permutation(topo.n_hosts, seed=5)]
        cfg = SimConfig(**CYCLES, batch_lanes=4)
        kw = dict(k=4, rates=(0.3, 0.5), config=cfg, seed=1, processes=1)
        with trace.capture(sample=16) as rec:
            traced_grid = run_saturation_grid(
                topo, ["redksp"], ["ksp_adaptive", "ksp_ugal"], pats, **kw
            )
            snap = rec.snapshot()
        assert snap["n_packets"] > 0
        assert snap["packets_dropped"] == 0 and snap["events_dropped"] == 0
        # The grid warms its caches with PathCache(topo, scheme, k, seed).
        cache = PathCache(topo, "redksp", k=4, seed=1)
        ana = TraceAnalysis(snap)
        assert ana.audit_routes(paths={"redksp": cache}, topology=topo) == []
        # Restricted mechanisms never route off the path table.
        for dist in ana.path_shares().values():
            assert -1 not in dist
        # The same grid untraced batches its lanes; numbers must agree.
        plain_grid = run_saturation_grid(
            topo, ["redksp"], ["ksp_adaptive", "ksp_ugal"], pats, **kw
        )
        assert traced_grid == plain_grid


def _figure_cell(topo, cache, mechanism, patterns, rates, config, seeds):
    """Per-pattern throughputs of one figure cell, run as ``run_fig`` runs
    it: one :func:`~repro.netsim.parallel.run_cells` chunk holding the
    cell's patterns, read from the results the runner's worker returns."""
    throughputs = []
    real = parallel._run_cell_batch

    def recording(chunk):
        results = real(chunk)
        throughputs.extend(cell.throughput for cell, _ in results)
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "_run_cell_batch", recording)
        parallel.run_cells(
            topo, {"redksp": cache}, patterns,
            [[("redksp", mechanism, i, seed) for i, seed in enumerate(seeds)]],
            rates, config,
        )
    return throughputs


class TestFigureCellLanes:
    """A figure cell must write the same artifacts at every lane width.

    A figure cell batches its patterns as lanes, so with two or more
    patterns every capture layer must still record pattern-major,
    rate-minor runs (the serial sweep order), not rate-major ones.
    """

    def _cell(self, batch_lanes, tmp_path, mechanism="ksp_adaptive",
              rates=(0.3, 0.6, 0.9), trace_sample=None, **knobs):
        topo = _topo()
        patterns = [random_permutation(topo.n_hosts, seed=s) for s in (5, 6, 7)]
        seeds = [
            np.random.SeedSequence(entropy=7, spawn_key=(0, 0, i))
            for i in range(len(patterns))
        ]
        metrics.enable()
        timeseries.enable(window=30)
        linkstate.enable(window=30)
        flowstats.enable()
        if trace_sample is not None:
            trace.enable(sample=trace_sample)
        try:
            throughputs = _figure_cell(
                topo, PathCache(topo, "redksp", k=4, seed=1), mechanism,
                patterns, rates,
                SimConfig(**CYCLES, **knobs, batch_lanes=batch_lanes), seeds,
            )
            out = tmp_path / f"lanes{batch_lanes}"
            saved = {
                "timeseries": timeseries.save_timeseries(out / "c.ts.npz"),
                "linkstate": linkstate.save_linkstate(out / "c.ls.npz"),
                "flowstats": flowstats.save_flowstats(out / "c.fs.npz"),
            }
            if trace_sample is not None:
                saved["trace"] = trace.save_trace(out / "c.tr.npz")
            n_runs = timeseries.snapshot()["n_runs"]
            snap = _strip_engine_keys(metrics.snapshot())
        finally:
            layers.disable_all()
        digests = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in saved.items()
        }
        return throughputs, n_runs, digests, snap

    def test_multi_pattern_cell_artifacts_identical(self, tmp_path):
        serial = self._cell(1, tmp_path)
        batched = self._cell(8, tmp_path)
        assert serial[1] > len(serial[0])  # some pattern ran 2+ rungs
        assert batched[0] == serial[0]
        diverged = [n for n, d in serial[2].items() if batched[2][n] != d]
        assert diverged == []

    def test_mixed_rate_packs_match_serial(self, tmp_path, monkeypatch):
        # On this 10-rung ladder the three patterns first saturate at
        # rungs 8, 7 and 4, so their searches part after the probe of
        # rung 7 and later steps pack lanes probing different rates.
        knobs = dict(
            mechanism="ksp_ugal", rates=tuple(i / 10 for i in range(1, 11)),
            saturation_latency=35.0,
        )
        serial = self._cell(1, tmp_path, **knobs)
        packs = []
        real = sweep.BatchSimulator

        def recording(topology, cache, lanes, config):
            packs.append([lane.injection_rate for lane in lanes])
            return real(topology, cache, lanes, config)

        monkeypatch.setattr(sweep, "BatchSimulator", recording)
        batched = self._cell(8, tmp_path, **knobs)
        assert any(len(set(rates)) > 1 for rates in packs)
        assert serial[0] == [0.8, 0.7, 0.4]
        assert batched[0] == serial[0]
        assert batched[1] == serial[1]
        assert batched[3] == serial[3]
        diverged = [n for n, d in serial[2].items() if batched[2][n] != d]
        assert diverged == []

    @pytest.mark.parametrize(
        "mechanism, trace_sample", [("ugal", None), ("ksp_adaptive", 3)]
    )
    def test_lone_searches_match_across_widths(
        self, tmp_path, monkeypatch, mechanism, trace_sample
    ):
        # Vanilla UGAL has no batched implementation and a traced cell
        # keeps per-packet events per run, so at any width each pattern
        # searches alone on the per-run engine, with the same artifacts.
        built = []
        real = sweep.BatchSimulator

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "BatchSimulator", counting)
        knobs = dict(mechanism=mechanism, trace_sample=trace_sample)
        narrow = self._cell(1, tmp_path, **knobs)
        wide = self._cell(8, tmp_path, **knobs)
        assert built == []
        assert narrow[1] > len(narrow[0])  # some pattern ran 2+ rungs
        assert wide[0] == narrow[0]
        assert wide[1] == narrow[1]
        assert wide[3] == narrow[3]
        assert set(wide[2]) == {"timeseries", "linkstate", "flowstats"} | (
            {"trace"} if trace_sample else set()
        )
        assert wide[2] == narrow[2]

    def test_one_pattern_cell_stays_on_fast_engine(self):
        # One pattern only makes one-lane batches, which run slower than
        # the fast engine; the cell must not take the batched path.
        topo = _topo()
        with metrics.capture() as reg:
            _figure_cell(
                topo, PathCache(topo, "redksp", k=4, seed=1), "ksp_adaptive",
                [random_permutation(topo.n_hosts, seed=5)], (0.3, 0.6),
                SimConfig(**CYCLES, batch_lanes=8),
                [np.random.SeedSequence(entropy=7)],
            )
        counters = reg.snapshot()["counters"]
        assert counters["netsim.engine_runs/fast"] > 0
        assert "netsim.engine_runs/batched" not in counters


class TestLaneMasking:
    """Early-draining lanes are masked; the rest keep stepping exactly."""

    def test_single_lane_batch_equals_fast_engine(self):
        lane = BatchLane("ksp_adaptive", _traffic("uniform", 24), 0.4, seed=11)
        _assert_equivalent([lane])

    def test_non_monotonic_finish_order(self):
        # Lane 0 carries far more load than lanes 1/2, so it keeps
        # draining long after they are masked (finish order 1/2 before 0,
        # i.e. not lane order) — the compacted allocator scan must keep
        # lane 0 bit-exact to the end.
        lanes = [
            BatchLane("ksp_adaptive", _traffic("uniform", 24), 0.9, seed=3),
            BatchLane("ksp_adaptive", _traffic("uniform", 24), 0.05, seed=4),
            BatchLane("ksp_ugal", _traffic("perm", 24), 0.1, seed=5),
        ]
        batch = _assert_equivalent(lanes)
        drains = [fp["drain_cycles"] for fp in batch]
        assert drains[0] > max(drains[1], drains[2])

    def test_drain_budget_exhaustion_mid_batch(self):
        # A loaded lane cannot drain in 150 cycles; a nearly idle lane
        # can.  The failed drain must raise, name the stuck lane, keep
        # the drained lane finished, and lose no packets anywhere.
        lanes = [
            BatchLane("random", _traffic("uniform", 24), 0.9, seed=1),
            BatchLane("random", _traffic("uniform", 24), 0.02, seed=2),
        ]
        topo = _topo()
        paths = PathCache(topo, "redksp", k=4, seed=1)
        cfg = SimConfig(
            warmup_cycles=100, sample_cycles=100, n_samples=3,
            drain_max_cycles=150, engine="fast", batch_lanes=2,
        )
        batch = BatchSimulator(topo, paths, lanes, cfg)
        batch.run(publish=False)
        assert batch.in_flight(0) > 0
        with pytest.raises(SimulationError, match="failed to drain"):
            batch.drain()
        assert batch.in_flight(0) > 0  # stuck lane kept its packets
        assert batch.in_flight(1) == 0  # idle lane finished draining
        batch.check_conservation()


class TestBatchValidation:
    """Engine/lane interplay must fail loudly, not fall back silently."""

    def test_reference_engine_rejects_batch_lanes(self):
        with pytest.raises(ConfigurationError, match="reference"):
            SimConfig(engine="reference", batch_lanes=2)

    def test_batch_lanes_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="batch_lanes"):
            SimConfig(batch_lanes=0)

    def test_reference_single_lane_still_allowed(self):
        cfg = SimConfig(engine="reference", batch_lanes=1)
        assert cfg.batch_lanes == 1

    def _one_lane(self):
        return [BatchLane("sp", _traffic("uniform", 24), 0.4, seed=1)]

    def test_unbatchable_mechanism_rejected(self):
        with pytest.raises(ConfigurationError, match="ugal"):
            BatchSimulator(
                _topo(), PathCache(_topo(), "redksp", k=4, seed=1),
                [BatchLane("ugal", _traffic("uniform", 24), 0.4)],
                SimConfig(**CYCLES),
            )

    def test_tracing_rejected(self):
        with trace.capture(sample=4):
            with pytest.raises(ConfigurationError, match="flight recorder"):
                BatchSimulator(
                    _topo(), PathCache(_topo(), "redksp", k=4, seed=1),
                    self._one_lane(), SimConfig(**CYCLES),
                )

    def test_mixed_vc_groups_rejected(self):
        # sp bounds the VC ladder by switch count, ksp_ugal by the
        # longest cached path: one buffer layout cannot serve both.
        lanes = [
            BatchLane("sp", _traffic("uniform", 24), 0.4, seed=1),
            BatchLane("ksp_ugal", _traffic("uniform", 24), 0.4, seed=2),
        ]
        with pytest.raises(ConfigurationError, match="VC count"):
            BatchSimulator(
                _topo(), PathCache(_topo(), "redksp", k=4, seed=1),
                lanes, SimConfig(**CYCLES),
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one lane"):
            BatchSimulator(
                _topo(), PathCache(_topo(), "redksp", k=4, seed=1),
                [], SimConfig(**CYCLES),
            )

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="injection_rate"):
            BatchSimulator(
                _topo(), PathCache(_topo(), "redksp", k=4, seed=1),
                [BatchLane("sp", _traffic("uniform", 24), 0.0)],
                SimConfig(**CYCLES),
            )
