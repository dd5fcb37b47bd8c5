"""Unit and integration tests for the flit-level simulator."""

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError, SimulationError, TrafficError
from repro.netsim import (
    PatternTraffic,
    SimConfig,
    Simulator,
    UniformTraffic,
    latency_curve,
    saturation_throughput,
)
from repro.netsim.network import NetworkWiring
from repro.traffic import random_permutation, shift
from repro.traffic.patterns import Pattern

FAST = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=3)


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(8, 8, 5, seed=3)  # 24 hosts


@pytest.fixture(scope="module")
def paths(topo):
    pc = PathCache(topo, "redksp", k=4, seed=1)
    return pc


class TestNetworkWiring:
    def test_port_maps_consistent(self, topo):
        w = NetworkWiring(topo)
        for s in range(topo.n_switches):
            for p, t in enumerate(topo.adjacency[s]):
                assert topo.adjacency[t][w.peer_port[s][p]] == s
                assert w.port_of[s][t] == p

    def test_route_ports_roundtrip(self, topo, paths):
        w = NetworkWiring(topo)
        ps = paths.get(0, 5)
        dst_host = topo.hosts_of_switch(5)[0]
        for p in ps:
            route = w.route_ports(p, dst_host)
            assert len(route) == p.hops + 1
            # Walking the ports reproduces the switch path.
            s = 0
            for i, port in enumerate(route[:-1]):
                s = topo.adjacency[s][port]
                assert s == p.nodes[i + 1]

    def test_route_rejects_wrong_destination_switch(self, topo, paths):
        w = NetworkWiring(topo)
        ps = paths.get(0, 5)
        wrong_host = topo.hosts_of_switch(3)[0]
        with pytest.raises(SimulationError, match="ends at switch"):
            w.route_ports(ps.minimal, wrong_host)

    def test_route_rejects_non_adjacent_step(self, topo):
        w = NetworkWiring(topo)
        non_nbr = next(
            v for v in range(topo.n_switches)
            if v != 0 and v not in topo.adjacency[0]
        )
        with pytest.raises(SimulationError, match="not a link"):
            w.route_ports((0, non_nbr), topo.hosts_of_switch(non_nbr)[0])

    def test_first_link(self, topo, paths):
        w = NetworkWiring(topo)
        p = paths.get(0, 5).minimal
        assert w.first_link(p) == topo.link_id(p.nodes[0], p.nodes[1])
        assert w.first_link((3,)) == -1


class TestTrafficSpecs:
    def test_uniform_never_self(self):
        t = UniformTraffic(10)
        rng = np.random.default_rng(0)
        assert all(t.dest(3, rng) != 3 for _ in range(100))

    def test_uniform_covers_all(self):
        t = UniformTraffic(6)
        rng = np.random.default_rng(0)
        assert {t.dest(2, rng) for _ in range(200)} == {0, 1, 3, 4, 5}

    def test_uniform_needs_two_hosts(self):
        with pytest.raises(TrafficError):
            UniformTraffic(1)

    def test_pattern_sources_restricted(self):
        pat = Pattern("two", 10, ((0, 1), (4, 2)))
        t = PatternTraffic(pat)
        assert t.sources().tolist() == [0, 4]
        rng = np.random.default_rng(0)
        assert t.dest(0, rng) == 1

    def test_pattern_multi_destination(self):
        pat = Pattern("fan", 10, ((0, 1), (0, 2), (0, 3)))
        t = PatternTraffic(pat)
        rng = np.random.default_rng(0)
        assert {t.dest(0, rng) for _ in range(100)} == {1, 2, 3}

    def test_switch_pairs_cover_pattern(self, topo):
        pat = random_permutation(topo.n_hosts, seed=0)
        t = PatternTraffic(pat)
        pairs = t.switch_pairs(topo)
        expect = {
            (topo.switch_of_host(s), topo.switch_of_host(d)) for s, d in pat.flows
        }
        assert set(pairs) == expect


class TestSimulatorMechanics:
    @pytest.mark.parametrize(
        "mechanism", ["sp", "random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive"]
    )
    def test_conservation_every_mechanism(self, topo, paths, mechanism):
        sim = Simulator(
            topo, paths, mechanism, UniformTraffic(topo.n_hosts), 0.3, FAST, seed=1
        )
        r = sim.run()
        sim.check_conservation()
        assert r.delivered > 0

    def test_ugal_sees_routes_another_vc_count_added(self, topo):
        # Runs share one route core per cache through per-VC-count views.
        # The ksp_adaptive run (fewer VCs than ugal) adds routes after
        # ugal's view exists; the second ugal run then meets some of them
        # through the shared route ids and must find their hop entries.
        n = topo.n_hosts
        cache = PathCache(topo, "ksp", k=4, seed=0)
        perm = PatternTraffic(
            Pattern("perm", n, [(i, (i + 3) % n) for i in range(n)])
        )
        Simulator(topo, cache, "ugal", perm, 0.3, FAST, seed=1).run()
        Simulator(
            topo, cache, "ksp_adaptive", UniformTraffic(n), 0.3, FAST, seed=1
        ).run()
        got = Simulator(
            topo, cache, "ugal", UniformTraffic(n), 0.3, FAST, seed=1
        ).run()
        ref = Simulator(
            topo, PathCache(topo, "ksp", k=4, seed=0), "ugal",
            UniformTraffic(n), 0.3,
            SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=3,
                      engine="reference"),
            seed=1,
        ).run()
        assert repr(got) == repr(ref)

    def test_zero_load_latency_is_pipeline_delay(self, topo, paths):
        # At a very low rate there is no queueing: latency of each packet is
        # exactly (hops + 2) * channel_latency, so the mean is a weighted
        # sum strictly inside the min/max pipeline delays.
        sim = Simulator(
            topo, paths, "sp", UniformTraffic(topo.n_hosts), 0.01,
            SimConfig(warmup_cycles=0, sample_cycles=500, n_samples=2), seed=1,
        )
        r = sim.run()
        lat = r.mean_latency
        cl = sim.config.channel_latency
        max_hops = max(
            p.hops for ps in paths._store.values() for p in ps
        )
        assert 2 * cl <= lat <= (max_hops + 2) * cl

    def test_accepted_tracks_offered_at_low_load(self, topo, paths):
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.2,
            SimConfig(warmup_cycles=200, sample_cycles=200, n_samples=5), seed=1,
        )
        r = sim.run()
        assert r.accepted_throughput == pytest.approx(0.2, rel=0.15)
        assert not r.saturated

    def test_full_load_still_makes_progress(self, topo, paths):
        # Deadlock freedom: at rate 1.0 the network must keep delivering.
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 1.0, FAST, seed=1
        )
        r = sim.run()
        sim.check_conservation()
        assert r.measured_delivered > 0

    def test_buffers_never_overflow(self, topo, paths):
        # Pokes reference-engine internals (per-buffer deques); the fast
        # engine's ring buffers get their own edge tests in
        # tests/test_simcore_equivalence.py.
        cfg = SimConfig(
            warmup_cycles=100, sample_cycles=100, n_samples=3, vc_buffer=4,
            engine="reference",
        )
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.9, cfg, seed=1
        )
        sim.run()
        assert sim.engine_name == "reference"
        for idx, q in enumerate(sim.in_q):
            assert len(q) <= cfg.vc_buffer
            assert 0 <= sim.free[idx] <= cfg.vc_buffer

    def test_occupancy_returns_to_in_flight_counts(self, topo, paths):
        # Reads reference-engine packet objects (in_q entries, _arrivals).
        cfg = SimConfig(
            warmup_cycles=100, sample_cycles=100, n_samples=3,
            engine="reference",
        )
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.1, cfg, seed=1
        )
        sim.run()
        # occupancy must equal queued-plus-flying switch-link packets.
        expect = np.zeros_like(sim.occupancy)
        for q in sim.in_q:
            for pkt in q:
                if pkt.in_link >= 0:
                    expect[pkt.in_link] += 1
        for (_, _, idx, pkt) in sim._arrivals:
            if idx >= 0 and pkt.in_link >= 0:
                expect[pkt.in_link] += 1
        assert np.array_equal(sim.occupancy, expect)

    def test_fast_engine_builds_no_reference_queues(self, topo, paths):
        # The per-buffer deques, arrival heap and route memo are the
        # reference engine's; the fast core keeps ring buffers and a
        # calendar queue instead (86,400 unused deques on RRG(720,24,19)).
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.5, FAST, seed=1
        )
        assert sim.engine_name == "fast"
        for name in ("in_q", "_arrivals", "_route_cache"):
            assert not hasattr(sim, name)
        assert sim.run().delivered > 0

    def test_pattern_nonsenders_never_inject(self, topo, paths):
        pat = Pattern("one", topo.n_hosts, ((0, topo.n_hosts - 1),))
        sim = Simulator(topo, paths, "sp", PatternTraffic(pat), 0.5, FAST, seed=1)
        sim.run()
        assert set(sim.source_q) <= {0}

    def test_invalid_rate_rejected(self, topo, paths):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                Simulator(topo, paths, "sp", UniformTraffic(topo.n_hosts), rate, FAST)

    def test_seeded_runs_reproduce(self, topo, paths):
        def run():
            sim = Simulator(
                topo, paths, "ksp_adaptive", UniformTraffic(topo.n_hosts),
                0.4, FAST, seed=42,
            )
            return sim.run()

        a, b = run(), run()
        assert a.delivered == b.delivered
        assert a.sample_latencies == b.sample_latencies

    def test_vc_count_covers_longest_route(self, topo, paths):
        sim = Simulator(
            topo, paths, "ugal", UniformTraffic(topo.n_hosts), 0.3, FAST, seed=1
        )
        assert sim.n_vcs >= sim.mechanism.max_route_hops() + 1

    @pytest.mark.parametrize("mechanism", ["random", "ugal", "ksp_adaptive"])
    def test_drain_empties_network(self, topo, paths, mechanism):
        # Deadlock-freedom: after stopping injection every packet departs.
        sim = Simulator(
            topo, paths, mechanism, UniformTraffic(topo.n_hosts), 0.9, FAST, seed=1
        )
        sim.run()
        extra = sim.drain()
        assert sim.in_flight() == 0
        assert sim.injected == sim.delivered
        assert extra >= 0
        sim.check_conservation()

    def test_drain_budget_exhaustion_raises(self, topo, paths):
        # A heavily loaded network cannot possibly empty in one cycle, so
        # an absurd drain budget must hit the SimulationError path instead
        # of silently returning with packets still in flight.
        cfg = SimConfig(
            warmup_cycles=100, sample_cycles=100, n_samples=3,
            drain_max_cycles=1,
        )
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.9, cfg, seed=1
        )
        sim.run()
        assert sim.in_flight() > 0
        with pytest.raises(SimulationError, match="failed to drain"):
            sim.drain()
        # The failed drain loses nothing: conservation still holds.
        sim.check_conservation()

    def test_zero_warmup_run(self, topo, paths):
        # warmup_cycles=0 means measurement starts at cycle 0; the run
        # must still produce coherent statistics and drain cleanly.
        cfg = SimConfig(warmup_cycles=0, sample_cycles=100, n_samples=3)
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.2, cfg, seed=2
        )
        result = sim.run()
        assert result.injected > 0
        assert result.measured_delivered == result.delivered
        assert result.mean_latency > 0
        assert not result.saturated
        sim.drain()
        sim.check_conservation()


class TestSimConfig:
    def test_defaults_match_paper(self):
        cfg = SimConfig()
        assert cfg.channel_latency == 10
        assert cfg.vc_buffer == 32
        assert cfg.warmup_cycles == 500
        assert cfg.measure_cycles == 5000
        assert cfg.n_samples == 10
        assert cfg.saturation_latency == 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(channel_latency=0)
        with pytest.raises(ConfigurationError):
            SimConfig(warmup_cycles=-1)
        with pytest.raises(ConfigurationError):
            SimConfig(saturation_latency=0)

    @pytest.mark.parametrize("field, value", [
        # A NaN threshold is never crossed: every ladder reads its top rung.
        ("saturation_latency", float("nan")),
        ("saturation_latency", float("inf")),
        # Non-integer cycle, size and count fields crash deep in an engine
        # or change a result silently.
        ("channel_latency", 2.5),
        ("vc_buffer", 1.5),
        ("input_speedup", 2.0),
        ("warmup_cycles", True),
        ("sample_cycles", 50.5),
        ("n_samples", 3.0),
        ("batch_lanes", 2.0),
        ("drain_max_cycles", 0),
        ("drain_max_cycles", -5),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimConfig(**{field: value})

    def test_totals(self):
        cfg = SimConfig(warmup_cycles=100, sample_cycles=50, n_samples=4)
        assert cfg.total_cycles == 300

    def test_long_fixed_warmup(self, topo, paths):
        # Warmup is a fixed cycle count with no ceiling, however long.
        assert SimConfig(warmup_cycles=9000).total_cycles == 14_000
        cfg = SimConfig(warmup_cycles=8_001, sample_cycles=50, n_samples=1)
        sim = Simulator(
            topo, paths, "random", UniformTraffic(topo.n_hosts), 0.1, cfg, seed=2
        )
        result = sim.run()
        assert len(result.sample_latencies) == 1
        assert result.measured_delivered > 0
        assert result.accepted_throughput == pytest.approx(0.1, abs=0.05)
        assert not result.saturated
        sim.drain()
        sim.check_conservation()


class TestSweeps:
    def test_latency_curve_monotone_latency(self, topo, paths):
        pts = latency_curve(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.1, 0.5, 0.9), config=FAST, seed=0,
            stop_after_saturation=False,
        )
        lats = [p.result.mean_latency for p in pts]
        assert lats[0] < lats[-1]

    def test_curve_stops_after_saturation(self, topo, paths):
        pts = latency_curve(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.9, 0.95, 1.0),
            config=SimConfig(
                warmup_cycles=100, sample_cycles=100, n_samples=3,
                saturation_latency=30.0,  # absurdly low: saturates instantly
            ),
            seed=0,
        )
        assert len(pts) == 1
        assert pts[0].result.saturated

    def test_saturation_throughput_reports_last_good_rate(self, topo, paths):
        th, pts = saturation_throughput(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.05, 0.1, 0.95, 1.0), config=FAST, seed=0,
        )
        assert 0.05 <= th <= 1.0
        good = [p.rate for p in pts if not p.result.saturated]
        assert th == (good[-1] if good else 0.0)

    def test_empty_rates_rejected(self, topo, paths):
        with pytest.raises(ConfigurationError):
            latency_curve(topo, paths, "random", UniformTraffic(topo.n_hosts), rates=())
