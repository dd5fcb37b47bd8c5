"""The packet flight recorder: sampling, ring buffers, persistence,
merge determinism, the latency decomposition, and the route audit.

The route audit is the tentpole correctness check: for every traced
packet the switch sequence reconstructed from its hop-depart events must
equal the route the mechanism chose, and (for the KSP-restricted
mechanisms) that route must be a member of the pair's precomputed path
set at the recorded index.  These tests run it against all six routing
mechanisms and then corrupt a recorded route to prove the audit can
actually fail.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import PatternTraffic, SimConfig, Simulator, UniformTraffic
from repro.netsim.parallel import run_saturation_grid
from repro.obs import trace
from repro.obs.trace import (
    EV_CREDIT_STALL,
    EV_HOP_DEPART,
    EV_INJECT,
    KSP_RESTRICTED_MECHANISMS,
    TraceAnalysis,
    TraceRecorder,
)
from repro.traffic import random_permutation
from repro.traffic.patterns import Pattern

pytestmark = pytest.mark.obs

ALL_MECHANISMS = ("sp", "random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive")


@pytest.fixture(autouse=True)
def _trace_disabled():
    """Every test starts and ends with tracing off (module state is global)."""
    trace.disable()
    yield
    trace.disable()


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(8, 6, 4, seed=1)


@pytest.fixture(scope="module")
def cache(topo):
    return PathCache(topo, "ksp", k=4, seed=0)


def _run_traced(topo, cache, mechanism, sample=1, rate=0.3):
    trace.enable(sample=sample, event_capacity=1 << 18, packet_capacity=1 << 14)
    n = topo.n_hosts
    pattern = Pattern("perm", n, [(i, (i + 3) % n) for i in range(n)])
    cfg = SimConfig(warmup_cycles=60, sample_cycles=60, n_samples=2)
    sim = Simulator(
        topo, cache, mechanism, PatternTraffic(pattern), rate,
        config=cfg, seed=np.random.SeedSequence(7),
    )
    sim.run()
    snap = trace.snapshot()
    trace.disable()
    return snap


# ------------------------------------------------------------- recorder

def test_sampling_every_nth():
    rec = TraceRecorder(sample=3)
    uids = [rec.sample_packet(0, s, 1, 0, 1, t_create=s) for s in range(9)]
    assert [u >= 0 for u in uids] == [True, False, False] * 3
    assert rec.n_injected == 9
    assert rec.n_packets == 3


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        TraceRecorder(sample=0)
    with pytest.raises(ConfigurationError):
        TraceRecorder(packet_capacity=0)


def test_ring_wrap_keeps_newest_packets():
    rec = TraceRecorder(sample=1, packet_capacity=4)
    for i in range(10):
        uid = rec.sample_packet(0, i, 99, 0, 1, t_create=i)
        rec.set_route(uid, 0, (0, 1), t_launch=i)
        rec.finish(uid, t_deliver=i + 5)
    snap = rec.snapshot()
    assert snap["n_packets"] == 10
    assert snap["packets_dropped"] == 6
    # Chronological order: the four newest uids, oldest first.
    assert snap["pk_uid"].tolist() == [6, 7, 8, 9]
    assert snap["pk_t_create"].tolist() == [6, 7, 8, 9]


def test_wrapped_packet_row_is_not_updated_by_stale_uid():
    rec = TraceRecorder(sample=1, packet_capacity=2)
    first = rec.sample_packet(0, 0, 1, 0, 1, t_create=0)
    for i in range(2):  # overwrite the ring
        rec.sample_packet(0, i + 1, 1, 0, 1, t_create=i + 1)
    rec.set_route(first, 0, (0, 1), t_launch=9)  # stale: row was reused
    rec.finish(first, t_deliver=9)
    snap = rec.snapshot()
    assert 9 not in snap["pk_t_launch"].tolist()
    assert 9 not in snap["pk_t_deliver"].tolist()


def test_route_width_grows_on_demand():
    rec = TraceRecorder(sample=1, route_width=2)
    uid = rec.sample_packet(0, 0, 1, 0, 5, t_create=0)
    rec.set_route(uid, 1, (0, 2, 3, 4, 5), t_launch=1)
    snap = rec.snapshot()
    assert snap["pk_route"].shape[1] == 5
    ana = TraceAnalysis(snap)
    assert ana.intended_route(0) == (0, 2, 3, 4, 5)
    assert snap["pk_hops"][0] == 4


def test_begin_run_closes_prior_packets():
    rec = TraceRecorder(sample=1)
    uid = rec.sample_packet(0, 0, 1, 0, 1, t_create=0)
    rec.begin_run(scheme="ksp", mechanism="sp")
    rec.finish(uid, t_deliver=10)  # prior run's packet no longer updates
    assert rec.snapshot()["pk_t_deliver"][0] == -1


def _sampled_packets(snap, run):
    """(src, dst, t_create) of every packet ``run`` traced."""
    sel = snap["pk_run"] == run
    return list(zip(
        snap["pk_src"][sel].tolist(), snap["pk_dst"][sel].tolist(),
        snap["pk_t_create"][sel].tolist(),
    ))


def test_sampling_restarts_at_each_run(topo, cache):
    # A run traces the same packets in a fresh recorder as after another
    # run, so a run captured alone and merged home equals one recorded
    # in the caller's recorder.
    n = topo.n_hosts
    pattern = PatternTraffic(
        Pattern("perm", n, [(i, (i + 3) % n) for i in range(n)])
    )
    cfg = SimConfig(warmup_cycles=60, sample_cycles=60, n_samples=2)

    def run(rate, seed):
        Simulator(
            topo, cache, "random", pattern, rate, config=cfg,
            seed=np.random.SeedSequence(seed),
        ).run()

    kw = dict(sample=3, event_capacity=1 << 18, packet_capacity=1 << 14)
    trace.enable(**kw)
    run(0.2, 1)
    before = trace.snapshot()["n_injected"]
    run(0.3, 7)
    after = trace.snapshot()
    trace.enable(**kw)
    run(0.3, 7)
    alone = trace.snapshot()
    assert before % 3 != 0  # the first run leaves the sampler mid-period
    assert len(_sampled_packets(alone, 0)) > 0
    assert _sampled_packets(after, 1) == _sampled_packets(alone, 0)


def test_save_load_roundtrip(tmp_path, topo, cache):
    snap = _run_traced(topo, cache, "random")
    path = trace.save_trace(tmp_path / "run.trace.npz", snap)
    back = trace.load_trace(path)
    assert back["format"] == trace.TRACE_FORMAT
    assert back["n_packets"] == snap["n_packets"]
    assert back["runs"] == snap["runs"]
    for key in snap:
        if isinstance(snap[key], np.ndarray):
            np.testing.assert_array_equal(back[key], snap[key])
    # Analyses agree exactly across the round trip.
    assert (
        TraceAnalysis(back).latency_decomposition()
        == TraceAnalysis(snap).latency_decomposition()
    )


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez_compressed(path, format="something-else", x=np.arange(3))
    with pytest.raises(ConfigurationError, match="not a repro-trace"):
        trace.load_trace(path)


def test_merge_offsets_uids_and_runs():
    a = TraceRecorder(sample=1)
    run_a = a.begin_run(scheme="ksp", mechanism="sp")
    ua = a.sample_packet(run_a, 0, 1, 0, 1, t_create=0)
    a.set_route(ua, 0, (0, 1), t_launch=1)
    a.finish(ua, t_deliver=5)

    b = TraceRecorder(sample=1)
    run_b = b.begin_run(scheme="ksp", mechanism="random")
    ub = b.sample_packet(run_b, 2, 3, 1, 0, t_create=2)
    b.set_route(ub, 1, (1, 0), t_launch=3)
    b.finish(ub, t_deliver=9)

    a.merge(b.snapshot())
    snap = a.snapshot()
    assert snap["n_packets"] == 2
    assert snap["pk_uid"].tolist() == [0, 1]
    assert snap["pk_run"].tolist() == [0, 1]
    assert [r["mechanism"] for r in snap["runs"]] == ["sp", "random"]
    # Events carry the same offsets, so analyses see one coherent trace.
    ana = TraceAnalysis(snap)
    assert set(ana.path_shares()) == {"ksp/sp", "ksp/random"}
    assert ana.realized_route(1) == ()


def test_merge_rejects_foreign_snapshot():
    rec = TraceRecorder()
    with pytest.raises(ConfigurationError, match="cannot merge"):
        rec.merge({"format": "bogus"})


# --------------------------------------------------------- module state

def test_disabled_module_state():
    assert not trace.enabled()
    assert trace.active() is None
    assert trace.snapshot() is None
    assert trace.config() is None
    trace.merge_snapshot({"format": trace.TRACE_FORMAT})  # silently dropped
    assert trace.save_trace("/nonexistent/never-written.npz") is None


def test_enable_disable_and_config():
    rec = trace.enable(sample=8, packet_capacity=16)
    assert trace.enabled() and trace.active() is rec
    cfg = trace.config()
    assert cfg["sample"] == 8 and cfg["packet_capacity"] == 16
    trace.disable()
    assert trace.config() is None


def test_capture_scopes_and_restores():
    outer = trace.enable(sample=1)
    with trace.capture(sample=4) as inner:
        assert trace.active() is inner
        assert inner.sample == 4
    assert trace.active() is outer


# ------------------------------------------------- simulator integration

@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
def test_route_audit_passes(topo, cache, mechanism):
    snap = _run_traced(topo, cache, mechanism)
    assert snap["n_packets"] > 100
    assert snap["packets_dropped"] == 0 and snap["events_dropped"] == 0
    ana = TraceAnalysis(snap)
    violations = ana.audit_routes(paths=cache, topology=topo)
    assert violations == []
    # The KSP-restricted mechanisms never route off the path table.
    if mechanism in KSP_RESTRICTED_MECHANISMS:
        for dist in ana.path_shares().values():
            assert -1 not in dist


def test_route_audit_detects_corruption(topo, cache):
    snap = _run_traced(topo, cache, "sp")
    ana = TraceAnalysis(snap)
    assert ana.audit_routes(paths=cache, topology=topo) == []
    # Corrupt one delivered packet's recorded route: swap in a different
    # (still plausible-length) switch id mid-route or at the endpoint.
    complete = np.flatnonzero(ana._complete_mask())
    row = int(complete[0])
    route = snap["pk_route"]
    width = int((route[row] >= 0).sum())
    col = max(0, width - 1)
    route[row, col] = (route[row, col] + 1) % topo.n_switches
    violations = TraceAnalysis(snap).audit_routes(paths=cache, topology=topo)
    assert violations
    assert any(str(int(snap["pk_uid"][row])) in v for v in violations)


def test_off_table_route_flagged_for_restricted_mechanism(topo, cache):
    snap = _run_traced(topo, cache, "random")
    ana = TraceAnalysis(snap)
    complete = np.flatnonzero(ana._complete_mask())
    row = int(complete[0])
    # Claim the packet was routed off-table: restricted mechanisms must
    # never do that, so the audit flags it even without a PathCache.
    snap["pk_path_index"][row] = -1
    violations = TraceAnalysis(snap).audit_routes()
    assert any("outside the precomputed path set" in v for v in violations)


@pytest.mark.parametrize("mechanism", ("sp", "ugal"))
def test_latency_decomposition_invariant(topo, cache, mechanism):
    """total == source_queue + switch_queue + (hops+2)*channel_latency,
    with both queueing terms non-negative, for every delivered packet."""
    snap = _run_traced(topo, cache, mechanism)
    ana = TraceAnalysis(snap)
    pk = ana._pk
    mask = ana._complete_mask()
    assert mask.sum() > 100
    chan = snap["runs"][0]["channel_latency"]
    total = pk["t_deliver"][mask] - pk["t_create"][mask]
    src_q = pk["t_launch"][mask] - pk["t_create"][mask]
    serial = (pk["hops"][mask] + 2) * chan
    net_q = total - src_q - serial
    assert (src_q >= 0).all()
    assert (net_q >= 0).all()

    decomp = ana.latency_decomposition()
    doc = decomp[f"ksp/{mechanism}"]
    assert doc["count"] == int(mask.sum())
    assert doc["mean_total"] == pytest.approx(
        doc["mean_source_queue"]
        + doc["mean_switch_queue"]
        + doc["mean_serialization"]
    )
    assert doc["mean_serialization"] == pytest.approx(
        (doc["mean_hops"] + 2) * chan
    )


def test_event_stream_shape(topo, cache):
    snap = _run_traced(topo, cache, "sp", sample=4)
    # Sampling traces ~1/4 of injected packets (head-based, so exact).
    assert snap["n_packets"] == -(-snap["n_injected"] // 4)
    assert snap["events_dropped"] == 0
    ana = TraceAnalysis(snap)
    ev = ana._ev
    assert (ev["kind"] == EV_INJECT).sum() == snap["n_packets"]
    # Every delivered packet's realized route matches its hop count.
    pk = ana._pk
    for i in np.flatnonzero(ana._complete_mask()):
        uid = int(pk["uid"][i])
        assert len(ana.realized_route(uid)) == int(pk["hops"][i]) + 1
    stalls = ana.stall_attribution()
    assert stalls["total"] == int((ev["kind"] == EV_CREDIT_STALL).sum())


def test_saturated_run_records_stalls(topo, cache):
    snap = _run_traced(topo, cache, "sp", rate=0.9)
    ana = TraceAnalysis(snap)
    stalls = ana.stall_attribution()
    assert stalls["total"] > 0
    assert sum(stalls["by_switch"].values()) == stalls["total"]
    assert sum(stalls["by_hop"].values()) == stalls["total"]


def test_untraced_simulation_records_nothing(topo, cache):
    n = topo.n_hosts
    pattern = Pattern("perm", n, [(i, (i + 3) % n) for i in range(n)])
    cfg = SimConfig(warmup_cycles=40, sample_cycles=40, n_samples=1)
    sim = Simulator(
        topo, cache, "sp", PatternTraffic(pattern), 0.3,
        config=cfg, seed=np.random.SeedSequence(7),
    )
    sim.run()
    assert trace.snapshot() is None


@pytest.mark.parametrize("saturated", [False, True], ids=["load0.4", "sat"])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "perm"])
@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
def test_tracing_changes_no_result(topo, cache, mechanism, uniform, saturated):
    """The fast engine's traced launch draws and picks exactly like its
    untraced one: same result, drain, stalls and final RNG state.  (The
    path-cache counters are left out: the recorder's route-index lookups
    count extra hits in every engine alike.)"""
    n = topo.n_hosts
    traffic = (
        UniformTraffic(n) if uniform
        else PatternTraffic(random_permutation(n, seed=3))
    )
    cfg = SimConfig(
        warmup_cycles=60, sample_cycles=60, n_samples=2,
        vc_buffer=2 if saturated else 32,
    )
    rate = 0.9 if saturated else 0.4
    outcomes = []
    for traced in (False, True):
        with trace.capture(sample=4) if traced else nullcontext() as rec:
            sim = Simulator(
                topo, cache, mechanism, traffic, rate,
                config=cfg, seed=np.random.SeedSequence(11),
            )
            # SimResult's repr leaves out ``config`` and spells NaN
            # samples alike, so equal reprs mean equal results.
            result = repr(sim.run())
            outcomes.append((
                result, sim.drain(), sim.credit_stalls,
                sim.rng.bit_generator.state,
            ))
    assert rec.snapshot()["n_packets"] > 0
    assert outcomes[0] == outcomes[1]


# --------------------------------------------------------- parallel grid

def test_parallel_grid_trace_equals_serial(topo):
    patterns = [random_permutation(topo.n_hosts, seed=s) for s in (0, 1)]
    cfg = SimConfig(warmup_cycles=40, sample_cycles=40, n_samples=2)
    kwargs = dict(k=2, rates=(0.2, 0.4), config=cfg, seed=9)

    snaps = {}
    for processes in (1, 2):
        trace.enable(sample=2, event_capacity=1 << 17, packet_capacity=1 << 13)
        run_saturation_grid(
            topo, ("ksp", "rksp"), ("random", "ugal"), patterns,
            processes=processes, **kwargs,
        )
        snaps[processes] = trace.snapshot()
        trace.disable()

    serial, parallel = snaps[1], snaps[2]
    assert serial["n_packets"] == parallel["n_packets"] > 0
    for key in serial:
        if isinstance(serial[key], np.ndarray):
            np.testing.assert_array_equal(serial[key], parallel[key], err_msg=key)
        else:
            assert serial[key] == parallel[key], key
