"""Tests for the process-parallel sweep grid (and pickling support)."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.core.path import Path, PathSet
from repro.errors import ConfigurationError
from repro.experiments import figs_netsim
from repro.experiments.presets import TopoSpec
from repro.netsim import (
    PatternTraffic,
    SimConfig,
    run_saturation_grid,
    saturation_throughput,
    sweep,
)
from repro.obs import flowstats, layers, linkstate, metrics
from repro.obs import timeseries as obs_timeseries
from repro.traffic import random_permutation, random_shift, shift
from repro.utils.rng import spawn_rngs

TINY = SimConfig(warmup_cycles=50, sample_cycles=50, n_samples=2)


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(8, 8, 5, seed=3)


class TestPickling:
    def test_path_roundtrip(self):
        p = Path([3, 1, 4])
        assert pickle.loads(pickle.dumps(p)) == p

    def test_pathset_roundtrip(self):
        ps = PathSet(1, 4, [Path([1, 4]), Path([1, 2, 4])])
        again = pickle.loads(pickle.dumps(ps))
        assert again == ps
        assert again.minimal == ps.minimal

    def test_cache_state_roundtrip(self, topo):
        cache = PathCache(topo, "redksp", k=3, seed=0)
        cache.precompute([(0, 1), (2, 5)])
        state = pickle.loads(pickle.dumps(cache.export_state()))
        fresh = PathCache(topo, "redksp", k=3, seed=0)
        fresh.import_state(state)
        assert fresh.get(0, 1) == cache.get(0, 1)
        assert len(fresh) == 2


class TestGrid:
    def test_inline_grid_shape(self, topo):
        pats = [random_permutation(topo.n_hosts, seed=0)]
        grid = run_saturation_grid(
            topo, ["sp", "redksp"], ["random", "ksp_adaptive"], pats,
            k=3, rates=(0.2, 0.6, 1.0), config=TINY, seed=0, processes=1,
        )
        assert set(grid) == {
            ("sp", "random"), ("sp", "ksp_adaptive"),
            ("redksp", "random"), ("redksp", "ksp_adaptive"),
        }
        assert all(0.0 <= v <= 1.0 for v in grid.values())

    def test_parallel_matches_inline(self, topo):
        pats = [shift(topo.n_hosts, 7)]
        kwargs = dict(
            k=3, rates=(0.3, 0.9), config=TINY, seed=4,
        )
        inline = run_saturation_grid(
            topo, ["redksp"], ["random"], pats, processes=1, **kwargs
        )
        parallel = run_saturation_grid(
            topo, ["redksp"], ["random"], pats, processes=2, **kwargs
        )
        assert inline == parallel

    def test_averages_over_patterns(self, topo):
        pats = [random_permutation(topo.n_hosts, seed=s) for s in range(2)]
        grid = run_saturation_grid(
            topo, ["sp"], ["random"], pats,
            k=1, rates=(0.5, 1.0), config=TINY, seed=0,
        )
        assert len(grid) == 1

    def test_validation(self, topo):
        pats = [random_permutation(topo.n_hosts, seed=0)]
        with pytest.raises(ConfigurationError):
            run_saturation_grid(topo, [], ["random"], pats, rates=(0.5,))
        with pytest.raises(ConfigurationError):
            run_saturation_grid(
                topo, ["sp"], ["random"], pats, rates=(0.5,), processes=0
            )
        # An empty ladder is an error on both tiers, never a 0.0 cell.
        for lanes in (1, 4):
            with pytest.raises(ConfigurationError, match="rates"):
                run_saturation_grid(
                    topo, ["ksp"], ["random"], pats, rates=(),
                    config=dataclasses.replace(TINY, batch_lanes=lanes),
                )

    def test_ladder_must_climb(self, topo):
        # Both tiers stop a cell at its first saturated rung, so a ladder
        # that does not climb is an error there, never a low reading.
        pats = [random_permutation(topo.n_hosts, seed=s) for s in (0, 1)]
        for lanes in (1, 4):
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                run_saturation_grid(
                    topo, ["ksp"], ["random"], pats, rates=(0.3, 0.1),
                    config=dataclasses.replace(TINY, batch_lanes=lanes),
                )


    @pytest.mark.parametrize("rates", [(0.1, 1.5), (0.1, float("nan"))])
    def test_every_rung_is_checked(self, topo, rates):
        # With every run saturated, both tiers read 0.0 from the first
        # rung and never reached the bad one.
        pats = [random_permutation(topo.n_hosts, seed=s) for s in (0, 1)]
        config = dataclasses.replace(TINY, saturation_latency=1.0)
        for lanes in (1, 4):
            with pytest.raises(ConfigurationError, match="finite"):
                run_saturation_grid(
                    topo, ["ksp"], ["random"], pats, rates=rates,
                    config=dataclasses.replace(config, batch_lanes=lanes),
                )


def _strip_engine_identity(snap):
    """Drop the keys that legitimately differ between engine tiers."""
    out = {}
    for section, values in snap.items():
        if not isinstance(values, dict) or section == "timers":
            continue
        out[section] = {
            k: v for k, v in values.items()
            if not (
                k.startswith("netsim.engine_runs/")
                or k.startswith("netsim.cycles_per_sec/")
            )
        }
    return out


def _grid_with_telemetry(topo, schemes, mechanisms, pats, batch_lanes,
                         processes=1, **kwargs):
    cfg = SimConfig(
        warmup_cycles=50, sample_cycles=50, n_samples=2,
        batch_lanes=batch_lanes,
    )
    with metrics.capture() as reg:
        with obs_timeseries.capture(window=30, top_links=4) as tsr:
            grid = run_saturation_grid(
                topo, schemes, mechanisms, pats, config=cfg,
                processes=processes, **kwargs,
            )
            ts = tsr.snapshot()
        snap = reg.snapshot()
    return grid, _strip_engine_identity(snap), ts


def _assert_ts_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        if isinstance(a[k], np.ndarray):
            assert np.array_equal(a[k], b[k]), k
        else:
            assert a[k] == b[k], k


class TestGridBatching:
    """run_saturation_grid(batch_lanes=N) vs the per-cell fast engine."""

    KW = dict(k=4, rates=(0.2, 0.5, 0.8), seed=9)

    def test_batched_grid_matches_per_cell(self, topo):
        # ugal is not batchable and must fall back per cell inside the
        # same grid; everything (cell throughputs, merged metrics minus
        # the engine identity stamps, time-series artifacts) must be
        # byte-identical to the per-cell run.
        pats = [random_permutation(topo.n_hosts, seed=s) for s in (5, 6)]
        mechs = ["sp", "ksp_adaptive", "ugal"]
        base = _grid_with_telemetry(topo, ["redksp"], mechs, pats, 1, **self.KW)
        bat = _grid_with_telemetry(topo, ["redksp"], mechs, pats, 4, **self.KW)
        assert base[0] == bat[0]
        assert base[1] == bat[1]
        _assert_ts_equal(base[2], bat[2])

    def test_batched_engine_stamped(self, topo):
        pats = [random_permutation(topo.n_hosts, seed=s) for s in (5, 6)]
        cfg = SimConfig(
            warmup_cycles=50, sample_cycles=50, n_samples=2, batch_lanes=4,
        )
        with metrics.capture() as reg:
            run_saturation_grid(
                topo, ["redksp"], ["ksp_adaptive", "ugal"], pats,
                config=cfg, **self.KW,
            )
            snap = reg.snapshot()
        # Batchable cells ran on the batched tier, ugal fell back.
        assert snap["counters"]["netsim.engine_runs/batched"] > 0
        assert snap["counters"]["netsim.engine_runs/fast"] > 0
        assert snap["gauges"]["netsim.cycles_per_sec/batched"] > 0

    def test_one_lane_rungs_run_on_fast_engine(self, monkeypatch):
        # A one-lane batch is slower than the fast engine and
        # byte-identical to it, so a rung with one job left never builds
        # one: a one-pattern grid runs wholly on the fast engine.
        topo = Jellyfish(24, 10, 6, seed=1)
        pats = [random_permutation(topo.n_hosts, seed=2)]
        kw = dict(k=4, rates=(0.3, 0.5, 0.7, 0.9), seed=0)
        serial = _grid_with_telemetry(
            topo, ["redksp"], ["ksp_adaptive"], pats, 1, **kw
        )
        built = []
        real = sweep.BatchSimulator

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "BatchSimulator", counting)
        batched = _grid_with_telemetry(
            topo, ["redksp"], ["ksp_adaptive"], pats, 8, **kw
        )
        assert built == []
        assert batched[0] == serial[0]
        assert batched[1] == serial[1]
        _assert_ts_equal(batched[2], serial[2])

    def test_batched_pool_matches_inline(self, topo):
        pats = [random_permutation(topo.n_hosts, seed=s) for s in (5, 6)]
        mechs = ["random", "ksp_ugal"]
        inline = _grid_with_telemetry(
            topo, ["redksp"], mechs, pats, 3, **self.KW
        )
        pooled = _grid_with_telemetry(
            topo, ["redksp"], mechs, pats, 3, processes=2, **self.KW
        )
        assert inline[0] == pooled[0]
        assert inline[1] == pooled[1]
        _assert_ts_equal(inline[2], pooled[2])


class TestThreeRungGrid:
    """A three-rung batched grid runs exactly the ladder's rungs.

    The e2e ``grid_forensics`` shape at a short budget: on three rungs
    the search probes the ladder's rungs in ladder order, so the runs,
    their lane packing and the saved artifacts are the climb's.  The
    pins were recorded from the rung-by-rung climb; a search that probes
    0.7 first (plain bisection) runs other rungs in another order.
    """

    THROUGHPUT = {
        ("redksp", "ksp_adaptive"): 0.5,
        ("redksp", "ksp_ugal"): 0.6999999999999998,
    }
    RUNS = 14
    SHA = {
        "timeseries": "026d8a76b05c91cb5b9f0022f6130a328ac4a9b4bc6157d0917c73ba23aab29b",
        "linkstate": "c97fc07b9783a9536ae6444f4e6f0206f31a7399c5a9820a92c89916e1166ca7",
        "flowstats": "f75983272c2f267ce28884ab770d149021865d08b90ddf944279a712e485bed9",
    }

    def test_grid_is_pinned(self, topo, tmp_path):
        pats = [random_permutation(topo.n_hosts, seed=s) for s in range(3)]
        config = SimConfig(
            warmup_cycles=60, sample_cycles=60, n_samples=2,
            saturation_latency=40.0, batch_lanes=8,
        )
        obs_timeseries.enable(window=30)
        linkstate.enable(window=30)
        flowstats.enable()
        try:
            grid = run_saturation_grid(
                topo, ["redksp"], ["ksp_adaptive", "ksp_ugal"], pats,
                k=4, rates=(0.5, 0.7, 0.9), config=config, seed=0,
            )
            saved = {
                "timeseries": obs_timeseries.save_timeseries(tmp_path / "g.ts.npz"),
                "linkstate": linkstate.save_linkstate(tmp_path / "g.ls.npz"),
                "flowstats": flowstats.save_flowstats(tmp_path / "g.fs.npz"),
            }
            runs = {
                obs_timeseries.snapshot()["n_runs"],
                linkstate.snapshot()["n_runs"],
                flowstats.snapshot()["n_runs"],
            }
        finally:
            layers.disable_all()
        assert grid == self.THROUGHPUT
        assert runs == {self.RUNS}
        digests = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in saved.items()
        }
        assert digests == self.SHA


#: A tiny Figure 7-10 preset: two schemes, all five mechanisms, three
#: patterns per cell, 8-lane packs, a four-rung ladder, a short budget.
TINY_FIG = {
    "topo": TopoSpec(8, 8, 5),
    "k": 3,
    "n_patterns": 3,
    "rates": (0.2, 0.4, 0.6, 0.8),
    "config": SimConfig(
        warmup_cycles=40, sample_cycles=40, n_samples=2,
        saturation_latency=40.0, batch_lanes=8,
    ),
    "schemes": ("ksp", "redksp"),
    "mechanisms": ("random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive"),
}


class TestFigureGrid:
    """``run_fig`` hands its cells to ``run_cells``, one chunk per
    (scheme, mechanism) cell, and keeps its seeds."""

    FIGURE = 9

    @pytest.fixture(autouse=True)
    def tiny_preset(self, monkeypatch):
        monkeypatch.setattr(figs_netsim, "netsim_preset", lambda s, f: TINY_FIG)

    def _fig(self, processes, tmp_path):
        obs_timeseries.enable(window=30)
        linkstate.enable(window=30)
        flowstats.enable()
        out = tmp_path / f"p{processes}"
        try:
            result = figs_netsim.run_fig(self.FIGURE, "small", 0, processes)
            saved = [
                obs_timeseries.save_timeseries(out / "f.ts.npz"),
                linkstate.save_linkstate(out / "f.ls.npz"),
                flowstats.save_flowstats(out / "f.fs.npz"),
            ]
        finally:
            layers.disable_all()
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in saved]
        return result, digests

    def test_pool_matches_inline(self, tmp_path):
        inline, inline_digests = self._fig(1, tmp_path)
        pooled, pooled_digests = self._fig(2, tmp_path)
        assert pooled.data == inline.data
        assert pooled.rows == inline.rows
        assert pooled_digests == inline_digests

    def test_cells_keep_the_figures_seeds(self):
        # Lone searches on the figure's cache seeds and cell seeds.
        topo_rng, *pat_rngs = spawn_rngs(0, TINY_FIG["n_patterns"] + 1)
        spec = TINY_FIG["topo"]
        topo = Jellyfish(spec.n, spec.x, spec.y, seed=topo_rng)
        traffics = [
            PatternTraffic(random_shift(topo.n_hosts, seed=rng))
            for rng in pat_rngs
        ]
        expected = {}
        for si, scheme in enumerate(TINY_FIG["schemes"]):
            cache = PathCache(
                topo, scheme, k=TINY_FIG["k"], seed=int(topo_rng.integers(2**31))
            )
            for traffic in traffics:
                cache.precompute(traffic.switch_pairs(topo))
            expected[scheme] = {}
            for mi, mech in enumerate(TINY_FIG["mechanisms"]):
                values = [
                    saturation_throughput(
                        topo, cache, mech, traffic, TINY_FIG["rates"],
                        TINY_FIG["config"],
                        np.random.SeedSequence(
                            entropy=self.FIGURE, spawn_key=(si, mi, i)
                        ),
                    )[0]
                    for i, traffic in enumerate(traffics)
                ]
                expected[scheme][mech] = float(np.mean(values))
        assert figs_netsim.run_fig(self.FIGURE, "small", 0).data == expected

    def test_packs_hold_one_cell(self, monkeypatch):
        packs = []
        real = sweep.BatchSimulator

        def recording(topology, cache, lanes, config):
            packs.append((cache.selector.name, {lane.mechanism for lane in lanes}))
            return real(topology, cache, lanes, config)

        monkeypatch.setattr(sweep, "BatchSimulator", recording)
        figs_netsim.run_fig(self.FIGURE, "small", 0, processes=1)
        assert packs
        assert all(len(mechanisms) == 1 for _, mechanisms in packs)
