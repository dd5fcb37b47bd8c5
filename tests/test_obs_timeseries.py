"""Windowed time-series telemetry: recorder semantics, simulator
integration, the steady-state (warmup-sufficiency) report, and
parallel/serial byte identity.

The byte-identity test is the tentpole pin: a parallel saturation grid's
time-series snapshot — and the ``.npz`` file written from it — must be
byte-identical to the serial run's, exactly like the path tables and the
flight recorder before it.
"""

import hashlib

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import SimConfig, Simulator, UniformTraffic
from repro.netsim.parallel import run_saturation_grid
from repro.obs import timeseries
from repro.obs.timeseries import (
    TIMESERIES_FORMAT,
    WINDOW_COLS,
    TimeseriesRecorder,
    detect_convergence,
    load_timeseries,
    run_series,
    save_timeseries,
    spans_converged,
    steady_state_report,
)
from repro.traffic import random_permutation

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _timeseries_disabled():
    """Module state is global; every test starts and ends with it off."""
    timeseries.disable()
    yield
    timeseries.disable()


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(8, 8, 5, seed=3)


@pytest.fixture(scope="module")
def cache(topo):
    return PathCache(topo, "redksp", k=4, seed=1)


FAST = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=3)


def _sim(topo, cache, rate=0.2, cfg=FAST, seed=5, mechanism="ksp_adaptive"):
    return Simulator(
        topo, cache, mechanism, UniformTraffic(topo.n_hosts), rate,
        config=cfg, seed=np.random.SeedSequence(seed),
    )


# ------------------------------------------------------------- recorder

class TestRecorder:
    def test_record_and_snapshot_columns(self):
        rec = TimeseriesRecorder(window=10, capacity=2, top_links=2)
        run = rec.begin_run(scheme="ksp", n_hosts=4)
        rec.record_window(
            run, start=0, cycles=10, injected=5, ejected=3, lat_sum=90,
            credit_stalls=1, forwarded=7, occupancy=2,
            link_flits=[0, 4, 4, 1],
        )
        snap = rec.snapshot()
        assert snap["format"] == TIMESERIES_FORMAT
        assert snap["n_windows"] == 1
        assert snap["runs"][0]["scheme"] == "ksp"
        for col in WINDOW_COLS:
            assert snap[f"win_{col}"].dtype == np.int64
        assert snap["win_ejected"][0] == 3
        assert snap["win_occupancy"][0] == 2

    def test_top_k_is_deterministic_with_ties(self):
        rec = TimeseriesRecorder(window=10, top_links=3)
        run = rec.begin_run()
        # links 1 and 2 tie at 4 flits: ascending id breaks the tie.
        rec.record_window(
            run, start=0, cycles=10, injected=0, ejected=0, lat_sum=0,
            credit_stalls=0, forwarded=0, occupancy=0,
            link_flits=[0, 4, 4, 9],
        )
        snap = rec.snapshot()
        assert snap["win_top_ids"][0].tolist() == [3, 1, 2]
        assert snap["win_top_flits"][0].tolist() == [9, 4, 4]

    def test_growth_preserves_rows_and_snapshot_equality(self):
        grown = TimeseriesRecorder(window=5, capacity=2, top_links=2)
        fresh = TimeseriesRecorder(window=5, capacity=64, top_links=2)
        for rec in (grown, fresh):
            run = rec.begin_run(label="x")
            for i in range(10):  # 5x the small recorder's capacity
                rec.record_window(
                    run, start=5 * i, cycles=5, injected=i, ejected=i,
                    lat_sum=10 * i, credit_stalls=0, forwarded=2 * i,
                    occupancy=i, link_flits=[i, 0, 1],
                )
        a, b = grown.snapshot(), fresh.snapshot()
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
            else:
                assert a[key] == b[key], key

    def test_merge_offsets_runs_in_task_order(self):
        parent = TimeseriesRecorder(window=10, top_links=1)
        for tag in ("a", "b"):
            child = TimeseriesRecorder(window=10, top_links=1)
            run = child.begin_run(tag=tag)
            child.record_window(
                run, start=0, cycles=10, injected=1, ejected=1, lat_sum=5,
                credit_stalls=0, forwarded=1, occupancy=0,
            )
            parent.merge(child.snapshot())
        snap = parent.snapshot()
        assert [r["tag"] for r in snap["runs"]] == ["a", "b"]
        assert snap["win_run"].tolist() == [0, 1]
        assert snap["win_index"].tolist() == [0, 0]

    def test_merge_rejects_mismatched_window(self):
        a = TimeseriesRecorder(window=10)
        b = TimeseriesRecorder(window=20)
        with pytest.raises(ConfigurationError):
            a.merge(b.snapshot())

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(window=0)
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(top_links=-1)

    def test_top_links_zero_skips_link_columns(self):
        """``top_links=0`` must not allocate, grow, or merge link columns.

        The stubs stay zero-row through growth and merge; the snapshot
        still carries schema-stable ``win_top_*`` keys of shape (n, 0).
        """
        rec = TimeseriesRecorder(window=10, capacity=1, top_links=0)
        assert rec._top_ids.shape == (0, 0)
        assert rec._top_flits.shape == (0, 0)
        run = rec.begin_run()
        for i in range(4):  # forces growth past the 1-row capacity
            rec.record_window(
                run, start=10 * i, cycles=10, injected=i, ejected=i,
                lat_sum=i, credit_stalls=0, forwarded=i, occupancy=0,
                link_flits=[5, 1, 3],
            )
        assert rec._top_ids.shape == (0, 0)  # untouched by _grow_to
        snap = rec.snapshot()
        assert snap["win_top_ids"].shape == (4, 0)
        assert snap["win_top_flits"].shape == (4, 0)
        parent = TimeseriesRecorder(window=10, top_links=0)
        parent.merge(snap)
        assert parent._top_ids.shape == (0, 0)
        merged = parent.snapshot()
        assert merged["n_windows"] == 4
        assert merged["win_top_ids"].shape == (4, 0)
        assert merged["win_injected"].tolist() == [0, 1, 2, 3]

    def test_on_window_hook_sees_meta_and_row(self):
        rec = TimeseriesRecorder(window=10)
        seen = []
        rec.on_window = lambda meta, row: seen.append((meta, row))
        run = rec.begin_run(n_hosts=8)
        rec.record_window(
            run, start=0, cycles=10, injected=4, ejected=2, lat_sum=60,
            credit_stalls=0, forwarded=3, occupancy=1,
        )
        assert len(seen) == 1
        meta, row = seen[0]
        assert meta["n_hosts"] == 8
        assert row["ejected"] == 2 and row["lat_sum"] == 60

    def test_npz_round_trip(self, tmp_path):
        rec = TimeseriesRecorder(window=10, top_links=2)
        run = rec.begin_run(scheme="rksp", rate=0.3)
        rec.record_window(
            run, start=0, cycles=10, injected=3, ejected=2, lat_sum=44,
            credit_stalls=1, forwarded=5, occupancy=7, link_flits=[1, 9, 0],
        )
        snap = rec.snapshot()
        path = save_timeseries(tmp_path / "t.npz", snap)
        back = load_timeseries(path)
        assert back["runs"] == snap["runs"]
        for key in snap:
            if isinstance(snap[key], np.ndarray):
                np.testing.assert_array_equal(snap[key], back[key], err_msg=key)

    def test_load_rejects_foreign_npz(self, tmp_path):
        p = tmp_path / "junk.npz"
        np.savez_compressed(p, data=np.arange(3))
        with pytest.raises(ConfigurationError):
            load_timeseries(p)

    def test_module_state_capture_and_config(self):
        assert timeseries.snapshot() is None
        assert timeseries.config() is None
        timeseries.enable(window=40, top_links=2)
        assert timeseries.enabled()
        assert timeseries.config() == {"window": 40, "top_links": 2}
        with timeseries.capture(window=7) as rec:
            assert timeseries.active() is rec
            assert timeseries.config() == {"window": 7, "top_links": 4}
        assert timeseries.active().window == 40
        timeseries.disable()
        assert not timeseries.enabled()


# ------------------------------------------------- simulator integration

class TestSimulatorIntegration:
    def test_windows_sum_to_run_totals(self, topo, cache):
        rec = timeseries.enable(window=50)
        sim = _sim(topo, cache)
        result = sim.run()
        snap = rec.snapshot()
        # 400 total cycles in 50-cycle windows.
        assert snap["n_windows"] == 8
        assert snap["n_runs"] == 1
        assert snap["win_injected"].sum() == result.injected
        assert snap["win_ejected"].sum() == result.delivered
        assert snap["win_cycles"].sum() == FAST.total_cycles
        assert snap["win_forwarded"].sum() == sim.flits_forwarded
        assert snap["win_credit_stalls"].sum() == sim.credit_stalls
        # Window starts tile the run contiguously.
        starts = snap["win_start"]
        np.testing.assert_array_equal(
            starts[1:], starts[:-1] + snap["win_cycles"][:-1]
        )
        assert snap["runs"][0]["warmup_cycles"] == FAST.warmup_cycles

    def test_partial_tail_window_is_flushed(self, topo, cache):
        rec = timeseries.enable(window=300)  # 400 cycles -> 300 + 100
        _sim(topo, cache).run()
        snap = rec.snapshot()
        assert snap["win_cycles"].tolist() == [300, 100]

    def test_recording_does_not_change_results(self, topo, cache):
        baseline = _sim(topo, cache).run()
        timeseries.enable(window=30)
        recorded = _sim(topo, cache).run()
        timeseries.disable()
        assert recorded == baseline

    def test_disabled_simulator_records_nothing(self, topo, cache):
        _sim(topo, cache).run()
        assert timeseries.snapshot() is None

    def test_run_series_derivation(self, topo, cache):
        rec = timeseries.enable(window=100)
        result = _sim(topo, cache).run()
        series = run_series(rec.snapshot(), 0)
        n = topo.n_hosts
        assert series["ejection_rate"].shape == (4,)
        total_ejected = float(
            (series["ejection_rate"] * series["cycles"] * n).sum()
        )
        assert round(total_ejected) == result.delivered
        # Measured-window latency means are positive and finite.
        assert np.isfinite(series["latency"][1:]).all()


# ----------------------------------------------------- steady detection

class TestSteadyDetection:
    def test_spans_converged_basics(self):
        flat = [1.0] * 8
        assert spans_converged(flat, 4, 0.01)
        assert not spans_converged(flat[:7], 4, 0.01)  # too short
        ramp = [float(i) for i in range(8)]
        assert not spans_converged(ramp, 4, 0.01)
        assert spans_converged(ramp, 4, 2.0)  # tolerance wide enough
        assert not spans_converged([1.0, 1.0, float("nan"), 1.0], 2, 0.5)
        assert spans_converged([0.0] * 4, 2, 0.01)  # flat zero converges

    def test_detect_convergence_finds_first_window(self):
        series = [[5.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
        t = detect_convergence(series, 2, 0.05)
        assert t == 6  # spans (1,1) vs (1,1) first pass at six values
        assert detect_convergence([[1.0, 2.0, 4.0, 8.0]], 2, 0.05) is None
        assert detect_convergence([], 2, 0.05) is None

    def test_steady_state_report_warmup_sufficiency(self):
        rec = TimeseriesRecorder(window=10)
        # Sufficient: converged well inside the 80-cycle warmup.
        good = rec.begin_run(n_hosts=1, warmup_cycles=80)
        # Insufficient: still ramping when warmup ended.
        bad = rec.begin_run(n_hosts=1, warmup_cycles=80)
        rates = {good: [5, 5, 5, 5, 5, 5, 5, 5], bad: [1, 2, 4, 8, 16, 32, 64, 99]}
        for run in (good, bad):
            rec._next_index = 0
            for i, ejected in enumerate(rates[run]):
                rec.record_window(
                    run, start=10 * i, cycles=10, injected=ejected,
                    ejected=ejected, lat_sum=20 * ejected, credit_stalls=0,
                    forwarded=ejected, occupancy=0,
                )
        report = steady_state_report(rec.snapshot(), check_windows=2, rel_tol=0.05)
        verdicts = {r["run"]: r for r in report["runs"]}
        assert verdicts[good]["warmup_sufficient"]
        assert verdicts[good]["converged_at_cycle"] <= 80
        assert not verdicts[bad]["warmup_sufficient"]
        assert report["n_warmup_sufficient"] == 1

    def test_steady_state_report_short_warmup_is_undetermined(self):
        # The test needs 2 x 4 windows before it can call a series
        # converged, so a flat series in 100-cycle windows gets no verdict
        # after a 200-cycle warmup and is judged after an 800-cycle one.
        rec = TimeseriesRecorder(window=100)
        short = rec.begin_run(n_hosts=1, warmup_cycles=200)
        long = rec.begin_run(n_hosts=1, warmup_cycles=800)
        for run in (short, long):
            rec._next_index = 0
            for i in range(10):
                rec.record_window(
                    run, start=100 * i, cycles=100, injected=5, ejected=5,
                    lat_sum=100, credit_stalls=0, forwarded=5, occupancy=0,
                )
        report = steady_state_report(rec.snapshot())
        verdicts = {r["run"]: r for r in report["runs"]}
        assert verdicts[short]["converged_at_cycle"] == 800
        assert verdicts[short]["warmup_sufficient"] is None
        assert verdicts[long]["warmup_sufficient"] is True
        assert report["n_undetermined"] == 1
        assert report["n_warmup_sufficient"] == 1
        assert report["n_converged"] == 2


# -------------------------------------------- parallel == serial (pin)

def test_parallel_grid_timeseries_byte_identical_to_serial(topo, tmp_path):
    patterns = [random_permutation(topo.n_hosts, seed=s) for s in (0, 1)]
    cfg = SimConfig(warmup_cycles=40, sample_cycles=40, n_samples=2)
    kwargs = dict(k=2, rates=(0.2, 0.4), config=cfg, seed=9)

    snaps, digests = {}, {}
    for processes in (1, 2):
        timeseries.enable(window=25, top_links=3)
        run_saturation_grid(
            topo, ("ksp", "rksp"), ("random", "ugal"), patterns,
            processes=processes, **kwargs,
        )
        snap = timeseries.snapshot()
        timeseries.disable()
        path = tmp_path / f"grid-p{processes}.timeseries.npz"
        save_timeseries(path, snap)
        snaps[processes] = snap
        digests[processes] = hashlib.sha256(path.read_bytes()).hexdigest()

    serial, parallel = snaps[1], snaps[2]
    assert serial["n_windows"] == parallel["n_windows"] > 0
    assert serial["runs"] == parallel["runs"]
    for key in serial:
        if isinstance(serial[key], np.ndarray):
            np.testing.assert_array_equal(serial[key], parallel[key], err_msg=key)
        else:
            assert serial[key] == parallel[key], key
    # The persisted artifacts are byte-identical, not merely equivalent.
    assert digests[1] == digests[2]


def test_grid_without_timeseries_still_returns_four_none(topo):
    # With every capture layer off a cell ships (cell, None): no snapshots.
    from repro.core.arena import PathArena
    from repro.netsim import parallel
    from repro.topology.serialization import topology_to_dict

    pattern = random_permutation(topo.n_hosts, seed=0)
    cache = PathCache(topo, "ksp", k=2, seed=9)
    pairs = sorted({
        (topo.switch_of_host(s), topo.switch_of_host(d)) for s, d in pattern.flows
    })
    cache.precompute(pairs)
    parallel._grid_init(
        topology_to_dict(topo), 2, 9, {"ksp": PathArena.from_cache(cache)},
    )
    try:
        cfg = SimConfig(warmup_cycles=20, sample_cycles=20, n_samples=1)
        [(cell, snaps)] = parallel._run_cell_batch(
            [("ksp", "random", 0, pattern.flows, pattern.n_hosts,
              (0.2,), cfg, (9, 0))]
        )
        assert snaps is None
        assert cell.scheme == "ksp"
    finally:
        parallel._GRID_STATE[0] = None
        parallel._GRID_CFGS[0] = {}
        parallel._GRID_HB[0] = None
