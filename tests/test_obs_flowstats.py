"""Per-pair flow telemetry: recorder semantics, engine equality, merge
algebra, and the byte-identity pin across all three engine tiers.

The tentpole pin: a saturation grid's flow-stats snapshot — and the
``.npz`` written from it — must be byte-identical whether the grid ran
serially, across pool workers, or through the batched multi-lane engine,
exactly like the metrics/trace/time-series/link-state artifacts before
it.  The exactness pin: per-pair percentiles reconstructed from the
histogram must equal ``np.percentile`` over the raw per-pair latencies.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import SimConfig, Simulator, UniformTraffic
from repro.netsim.fastcore import FastSimulator
from repro.netsim.parallel import run_saturation_grid
from repro.obs import flowstats
from repro.obs.fairness import pair_stats
from repro.obs.flowstats import (
    FLOWSTATS_FORMAT,
    HIST_COLS,
    PAIR_COLS,
    FlowstatsRecorder,
    latency_bins,
    load_flowstats,
    pair_endpoints,
    save_flowstats,
)
from repro.traffic import random_permutation

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _flowstats_disabled():
    """Module state is global; every test starts and ends with it off."""
    flowstats.disable()
    yield
    flowstats.disable()


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(8, 8, 5, seed=3)


@pytest.fixture(scope="module")
def cache(topo):
    return PathCache(topo, "redksp", k=4, seed=1)


FAST = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=3)

#: The fixed shape every synthetic-recorder test shares.
SHAPE = dict(n_hosts=3, n_pairs=9, n_bins=12)


def _sim(topo, cache, rate=0.2, cfg=FAST, seed=5, mechanism="ksp_adaptive"):
    return Simulator(
        topo, cache, mechanism, UniformTraffic(topo.n_hosts), rate,
        config=cfg, seed=np.random.SeedSequence(seed),
    )


def _snapshots_equal(a, b, tag=""):
    assert a.keys() == b.keys(), tag
    for key in a:
        if isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(
                a[key], b[key], err_msg=f"{tag}:{key}"
            )
        else:
            assert a[key] == b[key], f"{tag}:{key}"


# ------------------------------------------------------------- recorder

class TestRecorder:
    def test_record_and_snapshot_columns(self):
        rec = FlowstatsRecorder()
        run = rec.begin_run(scheme="ksp", **SHAPE)
        rec.record_run(run, [1, 1, 3], [2, 5, 7])
        snap = rec.snapshot()
        assert snap["format"] == FLOWSTATS_FORMAT
        assert snap["n_runs"] == 1 and snap["n_pairs"] == 9
        assert snap["runs"][0]["scheme"] == "ksp"
        for col in PAIR_COLS:
            assert snap[f"fs_{col}"].dtype == np.int64
            assert snap[f"fs_{col}"].shape == (1, 9)
        for col in HIST_COLS:
            assert snap[f"fs_{col}"].dtype == np.int64
            assert snap[f"fs_{col}"].shape == (3,)
        assert snap["fs_delivered"][0].tolist() == [0, 2, 0, 1, 0, 0, 0, 0, 0]
        assert snap["fs_lat_sum"][0].tolist() == [0, 7, 0, 7, 0, 0, 0, 0, 0]
        assert snap["fs_lat_max"][0].tolist() == [-1, 5, -1, 7, -1, -1, -1, -1, -1]
        # COO rows in canonical (run, pair, bin) order, counts positive.
        assert snap["fs_run"].tolist() == [0, 0, 0]
        assert snap["fs_pair"].tolist() == [1, 1, 3]
        assert snap["fs_bin"].tolist() == [2, 5, 7]
        assert snap["fs_count"].tolist() == [1, 1, 1]

    def test_begin_run_requires_shape_metadata(self):
        rec = FlowstatsRecorder()
        for missing in ("n_hosts", "n_pairs", "n_bins"):
            meta = dict(SHAPE)
            del meta[missing]
            with pytest.raises(ConfigurationError, match=missing):
                rec.begin_run(**meta)

    def test_mismatched_shape_rejected(self):
        rec = FlowstatsRecorder()
        rec.begin_run(**SHAPE)
        with pytest.raises(ConfigurationError, match="cannot share"):
            rec.begin_run(n_hosts=3, n_pairs=9, n_bins=13)

    def test_record_run_validation(self):
        rec = FlowstatsRecorder()
        run = rec.begin_run(**SHAPE)
        with pytest.raises(ConfigurationError, match="unknown run"):
            rec.record_run(run + 1, [0], [0])
        with pytest.raises(ConfigurationError, match="equal-length"):
            rec.record_run(run, [0, 1], [0])
        with pytest.raises(ConfigurationError, match="pair ids"):
            rec.record_run(run, [9], [0])
        with pytest.raises(ConfigurationError, match="latencies"):
            rec.record_run(run, [0], [12])
        rec.record_run(run, [], [])  # empty streams are a no-op

    def test_repeated_record_run_accumulates(self):
        once = FlowstatsRecorder()
        twice = FlowstatsRecorder()
        r0 = once.begin_run(**SHAPE)
        once.record_run(r0, [4, 2, 4, 4], [3, 1, 3, 0])
        r1 = twice.begin_run(**SHAPE)
        twice.record_run(r1, [4, 2], [3, 1])
        twice.record_run(r1, [4, 4], [3, 0])
        _snapshots_equal(once.snapshot(), twice.snapshot())
        snap = twice.snapshot()
        # The duplicate (pair 4, lat 3) folded into one count-2 row.
        assert snap["fs_pair"].tolist() == [2, 4, 4]
        assert snap["fs_bin"].tolist() == [1, 0, 3]
        assert snap["fs_count"].tolist() == [1, 1, 2]

    def test_endpoint_tables_pin_one_host_count(self):
        rec = FlowstatsRecorder()
        ep = pair_endpoints(3)
        rec.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])
        rec.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])  # idempotent
        with pytest.raises(ConfigurationError, match="different pair"):
            rec.set_pair_endpoints(ep["pair_dst"], ep["pair_src"])
        with pytest.raises(ConfigurationError, match="1-D"):
            rec.set_pair_endpoints([0, 1], [0])

    def test_merge_offsets_runs_in_task_order(self):
        parent = FlowstatsRecorder()
        for tag in ("a", "b"):
            child = FlowstatsRecorder()
            ep = pair_endpoints(3)
            run = child.begin_run(tag=tag, **SHAPE)
            child.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])
            child.record_run(run, [1], [2])
            parent.merge(child.snapshot())
        snap = parent.snapshot()
        assert [r["tag"] for r in snap["runs"]] == ["a", "b"]
        assert snap["fs_run"].tolist() == [0, 1]
        assert snap["fs_delivered"].shape == (2, 9)
        assert snap["pair_src"].tolist() == pair_endpoints(3)["pair_src"].tolist()

    def test_merge_rejects_foreign_format_and_shape(self):
        rec = FlowstatsRecorder()
        rec.begin_run(**SHAPE)
        with pytest.raises(ConfigurationError, match="format"):
            rec.merge({"format": "something-else"})
        other = FlowstatsRecorder()
        other.begin_run(n_hosts=2, n_pairs=4, n_bins=12)
        with pytest.raises(ConfigurationError, match="cannot share"):
            rec.merge(other.snapshot())

    def test_module_state_capture_and_config(self):
        assert flowstats.snapshot() is None
        assert flowstats.config() is None
        flowstats.enable()
        assert flowstats.enabled()
        # The recorder has no constructor parameters, so the enabled
        # config is the *falsy* {} — the grid plumbing must test
        # ``is not None``, never truthiness.
        assert flowstats.config() == {}
        outer = flowstats.active()
        with flowstats.capture() as rec:
            assert flowstats.active() is rec
            assert rec is not outer
        assert flowstats.active() is outer
        flowstats.disable()
        assert not flowstats.enabled()
        assert flowstats.config() is None


def test_latency_bins_is_a_pure_config_function():
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=3)
    assert latency_bins(cfg) == 100 + cfg.measure_cycles


def test_pair_endpoints_table():
    ep = pair_endpoints(3)
    assert ep["pair_src"].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert ep["pair_dst"].tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]
    with pytest.raises(ConfigurationError):
        pair_endpoints(0)


# ------------------------------------------------- simulator integration

class TestSimulatorIntegration:
    def test_totals_and_endpoints_cover_the_run(self, topo, cache):
        flowstats.enable()
        sim = _sim(topo, cache)
        result = sim.run()
        snap = flowstats.snapshot()
        flowstats.disable()
        n = topo.n_hosts
        assert snap["n_hosts"] == n and snap["n_pairs"] == n * n
        assert snap["n_bins"] == latency_bins(FAST)
        # Every measured delivery lands in exactly one pair row and one
        # histogram cell (flow stats are measure-gated, like latencies).
        assert int(snap["fs_delivered"].sum()) == result.measured_delivered
        assert int(snap["fs_count"].sum()) == result.measured_delivered
        assert int(snap["fs_lat_sum"].sum()) == sum(sim._latencies)
        ep = pair_endpoints(n)
        assert snap["pair_src"].tolist() == ep["pair_src"].tolist()
        assert snap["pair_dst"].tolist() == ep["pair_dst"].tolist()
        meta = snap["runs"][0]
        assert meta["mechanism"] == "ksp_adaptive"
        assert meta["n_bins"] == snap["n_bins"]

    def test_disabled_recorder_costs_nothing(self, topo, cache):
        sim = _sim(topo, cache)
        assert sim._fs is None
        sim.run()
        assert flowstats.snapshot() is None

    def test_reference_engine_matches_fast(self, topo, cache):
        snaps = {}
        for engine in ("fast", "reference"):
            cfg = SimConfig(
                warmup_cycles=100, sample_cycles=100, n_samples=3,
                engine=engine,
            )
            with flowstats.capture() as rec:
                sim = _sim(topo, cache, cfg=cfg)
                assert isinstance(sim, FastSimulator) == (engine == "fast")
                sim.run()
                snaps[engine] = rec.snapshot()
        _snapshots_equal(snaps["fast"], snaps["reference"])

    def test_histogram_percentiles_match_np_percentile(self, topo, cache):
        """The exactness pin: digests == np.percentile over raw streams."""
        with flowstats.capture() as rec:
            sim = _sim(topo, cache, rate=0.4)
            sim.run()
            snap = rec.snapshot()
        raw_pairs = np.asarray(sim._fs_pairs, dtype=np.int64)
        raw_lats = np.asarray(sim._latencies, dtype=np.int64)
        stats = pair_stats(snap, 0)
        assert len(stats) == len(set(raw_pairs.tolist())) > 0
        for s in stats:
            lats = raw_lats[raw_pairs == s["pair"]]
            assert s["delivered"] == lats.size
            assert s["max"] == int(lats.max())
            assert s["mean"] == pytest.approx(float(lats.mean()))
            p50, p99 = np.percentile(lats, (50, 99))
            assert s["p50"] == pytest.approx(float(p50), abs=1e-9)
            assert s["p99"] == pytest.approx(float(p99), abs=1e-9)


# ------------------------------------------------------- persistence

class TestPersistence:
    def test_npz_round_trip(self, tmp_path):
        rec = FlowstatsRecorder()
        ep = pair_endpoints(3)
        run = rec.begin_run(scheme="rksp", rate=0.3, **SHAPE)
        rec.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])
        rec.record_run(run, [1, 4, 4], [2, 5, 5])
        snap = rec.snapshot()
        path = save_flowstats(tmp_path / "f.npz", snap)
        back = load_flowstats(path)
        assert back["runs"] == snap["runs"]
        assert back["n_bins"] == snap["n_bins"]
        for key in snap:
            if isinstance(snap[key], np.ndarray):
                np.testing.assert_array_equal(snap[key], back[key], err_msg=key)

    def test_save_disabled_module_state_is_noop(self, tmp_path):
        assert save_flowstats(tmp_path / "none.npz") is None
        assert not (tmp_path / "none.npz").exists()

    def test_load_rejects_foreign_npz(self, tmp_path):
        p = tmp_path / "junk.npz"
        np.savez_compressed(p, data=np.arange(3))
        with pytest.raises(ConfigurationError):
            load_flowstats(p)


# ------------------------------------------------------- merge algebra

#: One shard: up to three runs, each a stream of (pair, latency) events.
_events = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 11)), max_size=20
)
_shard = st.lists(_events, max_size=3)


def _build(shard, tag):
    rec = FlowstatsRecorder()
    ep = pair_endpoints(3)
    for j, events in enumerate(shard):
        run = rec.begin_run(tag=f"{tag}{j}", **SHAPE)
        rec.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])
        if events:
            rec.record_run(
                run, [p for p, _ in events], [l for _, l in events]
            )
    return rec.snapshot()


def _merged(*snaps):
    rec = FlowstatsRecorder()
    for snap in snaps:
        rec.merge(snap)
    return rec.snapshot()


def _run_multiset(snap):
    """Per-run canonical rows, order-insensitively comparable."""
    hist_run = snap["fs_run"]
    out = []
    for r, meta in enumerate(snap["runs"]):
        rows = hist_run == r
        out.append(
            (
                json.dumps(meta, sort_keys=True),
                tuple(snap["fs_delivered"][r].tolist()),
                tuple(snap["fs_lat_sum"][r].tolist()),
                tuple(snap["fs_lat_max"][r].tolist()),
                tuple(
                    zip(
                        snap["fs_pair"][rows].tolist(),
                        snap["fs_bin"][rows].tolist(),
                        snap["fs_count"][rows].tolist(),
                    )
                ),
            )
        )
    return sorted(out)


class TestMergeAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(shard=_shard)
    def test_identity(self, shard):
        snap = _build(shard, "s")
        # Empty ⊕ x == x, and x ⊕ empty == x.
        _snapshots_equal(_merged(FlowstatsRecorder().snapshot(), snap), snap)
        _snapshots_equal(_merged(snap, FlowstatsRecorder().snapshot()), snap)

    @settings(max_examples=25, deadline=None)
    @given(a=_shard, b=_shard, c=_shard)
    def test_associativity(self, a, b, c):
        sa, sb, sc = _build(a, "a"), _build(b, "b"), _build(c, "c")
        _snapshots_equal(
            _merged(_merged(sa, sb), sc), _merged(sa, _merged(sb, sc))
        )
        # ... and both equal the flat task-order merge.
        _snapshots_equal(_merged(_merged(sa, sb), sc), _merged(sa, sb, sc))

    @settings(max_examples=25, deadline=None)
    @given(a=_shard, b=_shard)
    def test_commutative_up_to_run_order(self, a, b):
        # Task order is the canonical order, so ⊕ is *not* commutative
        # on raw bytes — but the per-run records themselves must be
        # preserved verbatim whichever side merged first.
        sa, sb = _build(a, "a"), _build(b, "b")
        assert _run_multiset(_merged(sa, sb)) == _run_multiset(_merged(sb, sa))


# --------------------------- serial == parallel == batched lanes (pin)

def test_grid_flowstats_byte_identical_across_engine_tiers(topo, tmp_path):
    """The tentpole pin: one flow-stats artifact, three execution tiers.

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
        flowstats.enable()
        run_saturation_grid(
            topo, ("ksp", "rksp"), ("ksp_adaptive", "ksp_ugal"), patterns,
            processes=mode["processes"], config=cfg, **kwargs,
        )
        snap = flowstats.snapshot()
        flowstats.disable()
        path = tmp_path / f"grid-{tag}.flowstats.npz"
        save_flowstats(path, snap)
        snaps[tag] = snap
        digests[tag] = hashlib.sha256(path.read_bytes()).hexdigest()

    base = snaps["serial"]
    assert base["n_runs"] == 16 and int(base["fs_delivered"].sum()) > 0
    for tag in ("pool", "batched"):
        _snapshots_equal(base, snaps[tag], tag)
    assert digests["serial"] == digests["pool"] == digests["batched"]
