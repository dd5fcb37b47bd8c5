"""Arena-backed path caches are indistinguishable from dict-backed ones.

The tentpole contract of the CSR arena: attaching a table as a
:class:`~repro.core.arena.PathArena` instead of materialised PathSets
must not change a single bit of any engine's results or telemetry — the
arena is storage, not behaviour.  This module pins that across all three
engine tiers (reference, fast, batched), plus the perf mechanics the
arena exists for: the per-cache route core is built once and shared by
every VC layout, grid workers receive a tiny shared-memory descriptor
instead of pickled path tables, parallel precompute merges worker-owned
arena shards, and a 5000-switch topology warms and runs under an
on-demand pair budget (the ``slow``-marked smoke).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import ArenaStore, Jellyfish, PathArena, PathCache
from repro.netsim import PatternTraffic, SimConfig, Simulator, UniformTraffic
from repro.netsim.batchcore import BatchLane, BatchSimulator
from repro.netsim.fastcore import FastSimulator
from repro.netsim.parallel import _ship_states, run_saturation_grid
from repro.obs import metrics
from repro.traffic import random_permutation
from repro.traffic.patterns import Pattern

CYCLES = dict(warmup_cycles=60, sample_cycles=60, n_samples=2)


def _topo():
    return Jellyfish(8, 8, 5, seed=3)  # 24 hosts


def _dict_cache(topo):
    """A fully warmed dict-backed cache, counters reset (the legacy way)."""
    paths = PathCache(topo, "redksp", k=4, seed=1)
    for s in range(topo.n_switches):
        for d in range(topo.n_switches):
            paths.get(s, d)
    paths.hits = paths.misses = 0
    return paths


def _arena_cache(topo):
    """The same table attached as a CSR arena to a fresh cache."""
    arena = PathArena.from_cache(_dict_cache(topo))
    paths = PathCache(topo, "redksp", k=4, seed=1)
    paths.attach_arena(arena)
    assert len(paths._store) == 0  # nothing materialised yet
    return paths


def _sha(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _strip_timers(snap):
    # Wall-clock timers and throughput gauges differ run to run;
    # everything else must match.
    doc = {k: v for k, v in (snap or {}).items() if k != "timers"}
    doc["gauges"] = {
        k: v
        for k, v in doc.get("gauges", {}).items()
        if not k.startswith("netsim.cycles_per_sec/")
    }
    return doc


def _run_single(paths, engine, mechanism="ksp_adaptive", rate=0.4):
    topo = paths.topology
    cfg = SimConfig(**CYCLES, engine=engine)
    with metrics.capture() as reg:
        sim = Simulator(
            topo, paths, mechanism,
            PatternTraffic(random_permutation(topo.n_hosts, seed=5)),
            rate, cfg, seed=11,
        )
        result = sim.run()
        extra = sim.drain()
    sim.check_conservation()
    doc = dataclasses.asdict(result)
    doc.pop("config")
    return _sha({
        "result": doc,
        "drain_cycles": extra,
        "credit_stalls": sim.credit_stalls,
        "rng_state": sim.rng.bit_generator.state,
        "cache": (paths.hits, paths.misses),
        "telemetry": _strip_timers(reg.snapshot()),
    })


def _run_batched(paths):
    topo = paths.topology
    lanes = [
        BatchLane(
            mech,
            PatternTraffic(random_permutation(topo.n_hosts, seed=5)),
            injection_rate=0.3 + 0.1 * i,
            seed=11 + i,
        )
        for i, mech in enumerate(("ksp_ugal", "ksp_adaptive"))
    ]
    cfg = SimConfig(**CYCLES, engine="fast", batch_lanes=len(lanes))
    with metrics.capture() as reg:
        batch = BatchSimulator(topo, paths, lanes, cfg)
        results = batch.run()
        drains = batch.drain()
    batch.check_conservation()
    return _sha({
        "results": [
            {
                k: v
                for k, v in dataclasses.asdict(results[i]).items()
                if k != "config"
            }
            for i in range(len(lanes))
        ],
        "drains": drains,
        "stalls": [int(s) for s in batch.credit_stalls],
        "rng_states": [r.bit_generator.state for r in batch.rngs],
        "cache": (paths.hits, paths.misses),
        "telemetry": _strip_timers(reg.snapshot()),
    })


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_single_engine_sha_identical(self, engine):
        topo = _topo()
        assert _run_single(_arena_cache(topo), engine) == _run_single(
            _dict_cache(topo), engine
        )

    def test_fast_engine_across_mechanisms(self):
        topo = _topo()
        for mechanism in ("sp", "random", "ksp_ugal"):
            assert _run_single(
                _arena_cache(topo), "fast", mechanism
            ) == _run_single(_dict_cache(topo), "fast", mechanism)

    def test_batched_engine_sha_identical(self):
        topo = _topo()
        assert _run_batched(_arena_cache(topo)) == _run_batched(
            _dict_cache(topo)
        )


class TestRouteCoreSharing:
    def test_route_core_built_once_across_vc_layouts(self):
        # Two mechanisms with different VC ladders on one cache: the CSR
        # route tables must be built once and shared; only the thin
        # per-n_vcs view (the baked rf_nxt hop targets) differs.
        topo = _topo()
        paths = _arena_cache(topo)
        for mechanism, rate in (("sp", 0.3), ("ksp_adaptive", 0.3)):
            sim = Simulator(
                topo, paths, mechanism, UniformTraffic(topo.n_hosts),
                rate, SimConfig(**CYCLES, engine="fast"), seed=7,
            )
            assert isinstance(sim, FastSimulator)
            sim.run()
        views = paths.__dict__["_fastcore_tables"]
        core = paths.__dict__["_route_core"]
        assert len(views) >= 2  # sp's hop cap != the KSP ladder bound
        for n_vcs, view in views.items():
            assert view.core is core
            assert view.r_nodes is core.r_nodes  # shared, not copied
            for j in range(len(core.rf_slot)):
                assert view.rf_nxt[j] == (
                    core.rf_slot[j] * n_vcs + core.rf_vc[j]
                )


class TestGridShipping:
    def _warm_caches(self, topo, schemes, pairs):
        caches = {}
        for scheme in schemes:
            cache = PathCache(topo, scheme, k=4, seed=1)
            cache.precompute(pairs)
            caches[scheme] = cache
        return caches

    def test_pool_payload_is_descriptor_not_pickled_tables(self):
        topo = _topo()
        pairs = [
            (s, d) for s in range(topo.n_switches)
            for d in range(topo.n_switches) if s != d
        ]
        caches = self._warm_caches(topo, ("ksp", "redksp"), pairs)
        legacy_blob = pickle.dumps(
            {s: c.export_state() for s, c in caches.items()}
        )

        states, shms = _ship_states(caches)
        try:
            blob = pickle.dumps(states)
            # The entire per-worker payload is a few hundred bytes of
            # descriptor — no path data, no PathSet pickles — where the
            # legacy snapshot shipped the whole table per worker.
            assert len(blob) < 2048
            assert b"PathSet" not in blob and b"paths" not in blob
            assert len(legacy_blob) > 10 * len(blob)
            for scheme, cache in caches.items():
                attached = PathArena.from_shm(states[scheme])
                for s, d in pairs[:20]:
                    assert [
                        p.nodes for p in attached.pathset(s, d)
                    ] == [p.nodes for p in cache.get(s, d)]
                del attached
        finally:
            for shm in shms:
                shm.close()
                shm.unlink()

    def _grid_kwargs(self, topo):
        return dict(
            schemes=("redksp",),
            mechanisms=("sp", "ksp_adaptive"),
            patterns=[random_permutation(topo.n_hosts, seed=5)],
            k=4,
            rates=[0.2, 0.4],
            config=SimConfig(warmup_cycles=40, sample_cycles=40, n_samples=1),
            seed=9,
        )

    def test_inline_grid_runs_on_callers_caches(self, monkeypatch):
        from repro.netsim import parallel

        topo = _topo()
        kwargs = self._grid_kwargs(topo)
        pooled = run_saturation_grid(topo, processes=2, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("an inline grid copied the caller's state")

        # No arena copy of the caller's tables, no rebuilt topology.
        monkeypatch.setattr(PathArena, "from_cache", refuse)
        monkeypatch.setattr(parallel, "topology_from_dict", refuse)
        assert run_saturation_grid(topo, processes=1, **kwargs) == pooled

    def test_grid_results_identical_inline_vs_pool(self):
        topo = _topo()
        kwargs = self._grid_kwargs(topo)
        inline = run_saturation_grid(topo, processes=1, **kwargs)
        pooled = run_saturation_grid(topo, processes=2, **kwargs)
        assert inline == pooled


class TestParallelPrecomputeShards:
    def test_worker_shards_merge_into_arena(self):
        topo = Jellyfish(36, 24, 16, seed=1)
        rng = np.random.default_rng(3)
        pairs = set()
        while len(pairs) < 40:
            s, d = (int(x) for x in rng.integers(0, topo.n_switches, 2))
            if s != d:
                pairs.add((s, d))
        pairs = sorted(pairs)

        serial = PathCache(topo, "rksp", k=8, seed=5)
        serial.precompute_parallel(pairs, processes=1)
        parallel = PathCache(topo, "rksp", k=8, seed=5)
        assert parallel.precompute_parallel(pairs, processes=4) == len(pairs)
        # Worker results land as merged arena shards, not dict entries.
        assert parallel.arena is not None
        assert sorted(parallel.arena.pairs()) == pairs
        for s, d in pairs:
            assert [p.nodes for p in parallel.peek(s, d)] == [
                p.nodes for p in serial.get(s, d)
            ]


@pytest.mark.slow
class TestLargeTopologySmoke:
    def test_5k_switch_on_demand_precompute_and_run(self, tmp_path):
        # A 5000-switch Jellyfish is far beyond full-table reach (25M
        # pairs); the on-demand pipeline — warm only the pairs a pattern
        # touches, persist and reload them as a memory-mapped arena — must
        # take it through a full cycle-accurate run in seconds.
        topo = Jellyfish(5000, 12, 8, seed=1)
        rng = np.random.default_rng(0)
        hosts = rng.choice(topo.n_hosts, size=(40, 2), replace=False)
        flows = [(int(a), int(b)) for a, b in hosts if int(a) != int(b)][:32]
        pattern = Pattern("smoke", topo.n_hosts, flows)
        pairs = sorted({
            (topo.switch_of_host(s), topo.switch_of_host(d))
            for s, d in flows
        })

        store = ArenaStore(tmp_path)
        warm = PathCache(topo, "rksp", k=4, seed=2)
        assert warm.warm(pairs, store=store) == len(pairs)

        paths = PathCache(topo, "rksp", k=4, seed=2)
        assert store.load(paths) == len(pairs)  # mmap-backed, zero compute
        cfg = SimConfig(warmup_cycles=30, sample_cycles=30, n_samples=1)
        sim = Simulator(
            topo, paths, "ksp_adaptive", PatternTraffic(pattern),
            0.3, cfg, seed=5,
        )
        result = sim.run()
        sim.drain()
        sim.check_conservation()
        assert result.delivered > 0
        assert paths.misses == 0  # every route came from the arena
