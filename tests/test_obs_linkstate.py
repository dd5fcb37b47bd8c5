"""Dense link-state telemetry: recorder semantics, engine equality,
and the byte-identity pin across all three engine tiers.

The tentpole pin: a saturation grid's link-state snapshot — and the
``.npz`` written from it — must be byte-identical whether the grid ran
serially, across pool workers, or through the batched multi-lane engine,
exactly like the metrics/trace/time-series artifacts before it.
"""

import hashlib

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import SimConfig, Simulator, UniformTraffic
from repro.netsim.fastcore import FastSimulator
from repro.netsim.parallel import run_saturation_grid
from repro.obs import linkstate
from repro.obs.linkstate import (
    LINKSTATE_FORMAT,
    MATRIX_COLS,
    ROW_COLS,
    LinkstateRecorder,
    link_endpoints,
    load_linkstate,
    save_linkstate,
)
from repro.traffic import random_permutation

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _linkstate_disabled():
    """Module state is global; every test starts and ends with it off."""
    linkstate.disable()
    yield
    linkstate.disable()


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


def _window_row(n_links, scale=1):
    return {
        "forwarded": np.arange(n_links) * scale,
        "credit_stalls": np.ones(n_links, dtype=np.int64),
        "peak_occupancy": np.full(n_links, 2 * scale),
    }


# ------------------------------------------------------------- recorder

class TestRecorder:
    def test_record_and_snapshot_columns(self):
        rec = LinkstateRecorder(window=10, capacity=2)
        run = rec.begin_run(scheme="ksp", n_links=4)
        rec.record_window(run, start=0, cycles=10, **_window_row(4))
        snap = rec.snapshot()
        assert snap["format"] == LINKSTATE_FORMAT
        assert snap["n_windows"] == 1 and snap["n_links"] == 4
        assert snap["runs"][0]["scheme"] == "ksp"
        for col in ROW_COLS:
            assert snap[f"ls_{col}"].dtype == np.int64
            assert snap[f"ls_{col}"].shape == (1,)
        for col in MATRIX_COLS:
            assert snap[f"ls_{col}"].dtype == np.int64
            assert snap[f"ls_{col}"].shape == (1, 4)
        assert snap["ls_forwarded"][0].tolist() == [0, 1, 2, 3]
        assert snap["ls_peak_occupancy"][0].tolist() == [2, 2, 2, 2]

    def test_begin_run_requires_n_links(self):
        rec = LinkstateRecorder()
        with pytest.raises(ConfigurationError, match="n_links"):
            rec.begin_run(scheme="ksp")

    def test_mismatched_n_links_rejected(self):
        rec = LinkstateRecorder()
        rec.begin_run(n_links=4)
        with pytest.raises(ConfigurationError, match="4 links"):
            rec.begin_run(n_links=6)

    def test_record_before_begin_run_rejected(self):
        rec = LinkstateRecorder()
        with pytest.raises(ConfigurationError, match="begin_run"):
            rec.record_window(0, start=0, cycles=10, **_window_row(4))

    def test_wrong_width_row_rejected(self):
        rec = LinkstateRecorder()
        run = rec.begin_run(n_links=4)
        with pytest.raises(ConfigurationError, match="shape"):
            rec.record_window(run, start=0, cycles=10, **_window_row(3))

    def test_growth_preserves_rows_and_snapshot_equality(self):
        grown = LinkstateRecorder(window=5, capacity=2)
        fresh = LinkstateRecorder(window=5, capacity=64)
        for rec in (grown, fresh):
            run = rec.begin_run(label="x", n_links=3)
            for i in range(10):  # 5x the small recorder's capacity
                rec.record_window(
                    run, start=5 * i, cycles=5, **_window_row(3, scale=i)
                )
        a, b = grown.snapshot(), fresh.snapshot()
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
            else:
                assert a[key] == b[key], key

    def test_merge_offsets_runs_in_task_order(self):
        parent = LinkstateRecorder(window=10)
        for tag in ("a", "b"):
            child = LinkstateRecorder(window=10)
            run = child.begin_run(tag=tag, n_links=2)
            child.set_link_endpoints([0, -1], [1, 0])
            child.record_window(run, start=0, cycles=10, **_window_row(2))
            parent.merge(child.snapshot())
        snap = parent.snapshot()
        assert [r["tag"] for r in snap["runs"]] == ["a", "b"]
        assert snap["ls_run"].tolist() == [0, 1]
        assert snap["ls_index"].tolist() == [0, 0]
        assert snap["link_src"].tolist() == [0, -1]

    def test_merge_rejects_mismatched_window(self):
        a = LinkstateRecorder(window=10)
        b = LinkstateRecorder(window=20)
        with pytest.raises(ConfigurationError, match="window"):
            a.merge(b.snapshot())

    def test_endpoint_tables_pin_one_topology(self):
        rec = LinkstateRecorder()
        rec.begin_run(n_links=2)
        rec.set_link_endpoints([0, 1], [1, 0])
        rec.set_link_endpoints([0, 1], [1, 0])  # idempotent re-validate
        with pytest.raises(ConfigurationError, match="different link"):
            rec.set_link_endpoints([1, 0], [0, 1])

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            LinkstateRecorder(window=0)
        with pytest.raises(ConfigurationError):
            LinkstateRecorder(capacity=0)

    def test_module_state_capture_and_config(self):
        assert linkstate.snapshot() is None
        assert linkstate.config() is None
        linkstate.enable(window=40)
        assert linkstate.enabled()
        assert linkstate.config() == {"window": 40}
        with linkstate.capture(window=7) as rec:
            assert linkstate.active() is rec
            assert linkstate.config() == {"window": 7}
        assert linkstate.active().window == 40
        linkstate.disable()
        assert not linkstate.enabled()


def test_link_endpoints_table(topo):
    ep = link_endpoints(topo)
    src, dst = ep["link_src"], ep["link_dst"]
    assert src.shape == dst.shape == (topo.n_links,)
    n_sw = topo.injection_link_base
    # Switch links connect switches in switch_links() order.
    assert (src[:n_sw] >= 0).all() and (dst[:n_sw] >= 0).all()
    for h in range(topo.n_hosts):
        sw = topo.switch_of_host(h)
        assert src[topo.injection_link_base + h] == -1 - h
        assert dst[topo.injection_link_base + h] == sw
        assert src[topo.ejection_link_base + h] == sw
        assert dst[topo.ejection_link_base + h] == -1 - h


# ------------------------------------------------- simulator integration

class TestSimulatorIntegration:
    def test_windows_cover_run_and_sum_to_totals(self, topo, cache):
        linkstate.enable(window=100)
        sim = _sim(topo, cache)
        sim.run()
        snap = linkstate.snapshot()
        linkstate.disable()
        assert snap["n_links"] == topo.n_links
        # 400 total cycles at window=100: four full windows, no drain rows.
        assert snap["ls_start"].tolist() == [0, 100, 200, 300]
        assert int(snap["ls_cycles"].sum()) == FAST.total_cycles
        fwd = snap["ls_forwarded"]
        # Switch-link forwarded flits sum to the engine's own counter
        # (linkstate is not measure-gated, and drain never flushes).
        n_sw = topo.injection_link_base
        assert int(fwd[:, :n_sw].sum()) == sim.flits_forwarded
        # Every launched flit crosses exactly one injection link.
        inj = fwd[:, topo.injection_link_base : topo.ejection_link_base]
        assert int(inj.sum()) > 0
        # Injection/ejection links hold no VC buffers: peak stays zero;
        # ejection links never stall.
        peak = snap["ls_peak_occupancy"]
        assert int(peak[:, n_sw:].sum()) == 0
        assert int(snap["ls_credit_stalls"][:, topo.ejection_link_base :].sum()) == 0
        meta = snap["runs"][0]
        assert meta["n_links"] == topo.n_links
        assert meta["mechanism"] == "ksp_adaptive"

    def test_final_partial_window_flushes(self, topo, cache):
        linkstate.enable(window=150)
        _sim(topo, cache).run()
        snap = linkstate.snapshot()
        linkstate.disable()
        # 400 cycles at window=150: 150/150/100.
        assert snap["ls_cycles"].tolist() == [150, 150, 100]

    def test_disabled_recorder_costs_nothing(self, topo, cache):
        sim = _sim(topo, cache)
        assert sim._ls is None
        sim.run()
        assert linkstate.snapshot() is None

    def test_reference_engine_matches_fast(self, topo, cache):
        snaps = {}
        for engine in ("fast", "reference"):
            cfg = SimConfig(
                warmup_cycles=100, sample_cycles=100, n_samples=3,
                engine=engine,
            )
            with linkstate.capture(window=100) as rec:
                sim = _sim(topo, cache, cfg=cfg)
                assert isinstance(sim, FastSimulator) == (engine == "fast")
                sim.run()
                snaps[engine] = rec.snapshot()
        fast, ref = snaps["fast"], snaps["reference"]
        assert fast.keys() == ref.keys()
        for key in fast:
            if isinstance(fast[key], np.ndarray):
                np.testing.assert_array_equal(fast[key], ref[key], err_msg=key)
            else:
                assert fast[key] == ref[key], key

    def test_switch_stalls_recorded_under_backpressure(self, topo, cache):
        # The paper's 32-flit buffers absorb core contention, so stalls
        # pool at the injection edge; 2-flit buffers force switch-to-
        # switch credit stalls — the signal the congestion tree walks.
        cfg = SimConfig(
            warmup_cycles=100, sample_cycles=100, n_samples=2, vc_buffer=2,
        )
        with linkstate.capture(window=100) as rec:
            _sim(topo, cache, rate=0.9, cfg=cfg).run()
            snap = rec.snapshot()
        stalls = snap["ls_credit_stalls"].sum(axis=0)
        n_sw = topo.injection_link_base
        assert int(stalls[:n_sw].sum()) > 0
        assert int(stalls[n_sw : topo.ejection_link_base].sum()) > 0


# ------------------------------------------------------- persistence

class TestPersistence:
    def test_npz_round_trip(self, tmp_path):
        rec = LinkstateRecorder(window=10)
        run = rec.begin_run(scheme="rksp", rate=0.3, n_links=3)
        rec.set_link_endpoints([0, 1, -1], [1, 0, 0])
        rec.record_window(run, start=0, cycles=10, **_window_row(3))
        snap = rec.snapshot()
        path = save_linkstate(tmp_path / "l.npz", snap)
        back = load_linkstate(path)
        assert back["runs"] == snap["runs"]
        assert back["window"] == snap["window"]
        for key in snap:
            if isinstance(snap[key], np.ndarray):
                np.testing.assert_array_equal(snap[key], back[key], err_msg=key)

    def test_save_disabled_module_state_is_noop(self, tmp_path):
        assert save_linkstate(tmp_path / "none.npz") is None
        assert not (tmp_path / "none.npz").exists()

    def test_load_rejects_foreign_npz(self, tmp_path):
        p = tmp_path / "junk.npz"
        np.savez_compressed(p, data=np.arange(3))
        with pytest.raises(ConfigurationError):
            load_linkstate(p)


# --------------------------- serial == parallel == batched lanes (pin)

def test_grid_linkstate_byte_identical_across_engine_tiers(topo, tmp_path):
    """The tentpole pin: one link-state artifact, three execution tiers.

    Serial in-process (processes=1), pool workers (processes=2), and the
    batched multi-lane engine (batch_lanes=4) must produce SHA-identical
    ``.npz`` files — not merely equivalent snapshots.
    """
    patterns = [random_permutation(topo.n_hosts, seed=s) for s in (0, 1)]
    kwargs = dict(k=2, rates=(0.2, 0.4), seed=9)

    digests, snaps = {}, {}
    modes = {
        "serial": dict(processes=1, batch_lanes=1),
        "pool": dict(processes=2, batch_lanes=1),
        "batched": dict(processes=1, batch_lanes=4),
    }
    for tag, mode in modes.items():
        cfg = SimConfig(
            warmup_cycles=40, sample_cycles=40, n_samples=2,
            batch_lanes=mode["batch_lanes"],
        )
        linkstate.enable(window=25)
        run_saturation_grid(
            topo, ("ksp", "rksp"), ("ksp_adaptive", "ksp_ugal"), patterns,
            processes=mode["processes"], config=cfg, **kwargs,
        )
        snap = linkstate.snapshot()
        linkstate.disable()
        path = tmp_path / f"grid-{tag}.linkstate.npz"
        save_linkstate(path, snap)
        snaps[tag] = snap
        digests[tag] = hashlib.sha256(path.read_bytes()).hexdigest()

    base = snaps["serial"]
    assert base["n_windows"] > 0 and base["n_runs"] == 16
    for tag in ("pool", "batched"):
        other = snaps[tag]
        assert base["runs"] == other["runs"], tag
        for key in base:
            if isinstance(base[key], np.ndarray):
                np.testing.assert_array_equal(
                    base[key], other[key], err_msg=f"{tag}:{key}"
                )
    assert digests["serial"] == digests["pool"] == digests["batched"]
