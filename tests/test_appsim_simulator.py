"""Unit and integration tests for the flow-level application simulator."""

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.appsim import FlowSpec, build_workload, run_flows, simulator, stencil_time
from repro.errors import ConfigurationError, SimulationError


def flow(nbytes, links, msg=0):
    return FlowSpec(0, 1, nbytes, np.asarray(links, dtype=np.int64), msg)


class TestRunFlows:
    def test_single_flow_time(self):
        r = run_flows([flow(100.0, [0, 1])], 10.0, n_links=2)
        assert r.makespan == pytest.approx(10.0)
        assert r.makespan_ms() == pytest.approx(10_000.0)

    def test_two_equal_flows_share_then_no_speedup(self):
        # Same size, same link: both at cap/2 the whole time.
        r = run_flows([flow(50.0, [0], 0), flow(50.0, [0], 1)], 10.0, n_links=1)
        assert r.makespan == pytest.approx(10.0)
        assert r.flow_completion == pytest.approx([10.0, 10.0])

    def test_short_flow_releases_bandwidth(self):
        # Flow A: 30 bytes, flow B: 90 bytes, shared link cap 10.
        # Phase 1: both at 5 -> A done at t=6 (B has 60 left).
        # Phase 2: B alone at 10 -> done at t=12.
        r = run_flows([flow(30.0, [0], 0), flow(90.0, [0], 1)], 10.0, n_links=1)
        assert r.flow_completion == pytest.approx([6.0, 12.0])
        assert r.makespan == pytest.approx(12.0)

    def test_message_completion_is_max_over_subflows(self):
        flows = [flow(30.0, [0], msg=7), flow(90.0, [1], msg=7)]
        r = run_flows(flows, 10.0, n_links=2)
        assert r.message_completion[7] == pytest.approx(9.0)

    def test_mean_statistics(self):
        flows = [flow(30.0, [0], 0), flow(90.0, [0], 1)]
        r = run_flows(flows, 10.0, n_links=1)
        assert r.mean_flow_completion == pytest.approx(9.0)
        assert r.total_bytes == pytest.approx(120.0)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError, match="no flows"):
            run_flows([], 1.0, n_links=1)

    def test_conservation_total_time_lower_bound(self):
        # Makespan can never beat the most-loaded link's bytes/capacity.
        rng = np.random.default_rng(1)
        flows = [
            flow(float(rng.integers(10, 100)), rng.integers(0, 5, size=2), i)
            for i in range(20)
        ]
        cap = 7.0
        r = run_flows(flows, cap, n_links=5)
        usage = np.zeros(5)
        for f in flows:
            usage[np.unique(f.links)] += f.nbytes
        assert r.makespan >= usage.max() / cap - 1e-9

    def test_simultaneous_batch_completion(self):
        flows = [flow(10.0, [i], i) for i in range(6)]
        r = run_flows(flows, 1.0, n_links=6)
        assert r.flow_completion == pytest.approx(np.full(6, 10.0))

    def test_solves_through_module_global(self, monkeypatch):
        # The benchmark tracer times the solver by wrapping this module
        # global; one call per event, with the alive flows' link arrays.
        sizes = []
        solve = simulator.maxmin_rates

        def counting(flow_links, *args):
            sizes.append(len(flow_links))
            return solve(flow_links, *args)

        monkeypatch.setattr(simulator, "maxmin_rates", counting)
        run_flows([flow(30.0, [0], 0), flow(90.0, [0], 1)], 10.0, n_links=1)
        assert sizes == [2, 1]


class TestBuildWorkload:
    @pytest.fixture(scope="class")
    def topo(self):
        return Jellyfish(8, 8, 5, seed=3)

    @pytest.fixture(scope="class")
    def paths(self, topo):
        return PathCache(topo, "redksp", k=4, seed=1)

    def test_sp_one_flow_per_message(self, topo, paths):
        msgs = [(0, 9, 100.0), (3, 14, 50.0)]
        flows = build_workload(topo, msgs, paths, mechanism="sp")
        assert len(flows) == 2
        assert {f.message_id for f in flows} == {0, 1}

    def test_random_splits_evenly(self, topo, paths):
        msgs = [(0, 9, 100.0)]
        flows = build_workload(topo, msgs, paths, mechanism="random")
        ss, ds = topo.switch_of_host(0), topo.switch_of_host(9)
        k = paths.get(ss, ds).k
        assert len(flows) == k
        assert sum(f.nbytes for f in flows) == pytest.approx(100.0)
        assert len({f.nbytes for f in flows}) == 1

    def test_adaptive_chunks_cover_message(self, topo, paths):
        msgs = [(0, 9, 100.0)]
        flows = build_workload(topo, msgs, paths, mechanism="ksp_adaptive", chunks=8)
        assert sum(f.nbytes for f in flows) == pytest.approx(100.0)
        # Chunks on the same path merge, so at most k distinct flows.
        ss, ds = topo.switch_of_host(0), topo.switch_of_host(9)
        assert len(flows) <= paths.get(ss, ds).k

    def test_adaptive_spreads_over_multiple_paths(self, topo, paths):
        msgs = [(0, 9, 100.0)]
        flows = build_workload(
            topo, msgs, paths, mechanism="ksp_adaptive", chunks=16, seed=5
        )
        assert len(flows) >= 2  # congestion-aware splitting engaged

    def test_flow_links_include_terminal_links(self, topo, paths):
        msgs = [(0, 9, 100.0)]
        (f,) = build_workload(topo, msgs, paths, mechanism="sp")
        assert topo.injection_link(0) in f.links
        assert topo.ejection_link(9) in f.links

    def test_intra_switch_message(self, topo, paths):
        h0, h1 = topo.hosts_of_switch(2)[0], topo.hosts_of_switch(2)[1]
        (f,) = build_workload(topo, [(h0, h1, 10.0)], paths, mechanism="sp")
        assert len(f.links) == 2  # injection + ejection only

    def test_self_message_rejected(self, topo, paths):
        with pytest.raises(SimulationError, match="self-message"):
            build_workload(topo, [(0, 0, 10.0)], paths)

    def test_unknown_mechanism_rejected(self, topo, paths):
        with pytest.raises(ConfigurationError):
            build_workload(topo, [(0, 9, 10.0)], paths, mechanism="teleport")

    def test_seeded_reproducible(self, topo, paths):
        msgs = [(0, 9, 100.0), (1, 17, 60.0)]

        def build():
            fl = build_workload(topo, msgs, paths, mechanism="ksp_adaptive", seed=4)
            return [(f.nbytes, f.links.tolist(), f.message_id) for f in fl]

        assert build() == build()


class TestStencilTime:
    @pytest.fixture(scope="class")
    def topo(self):
        return Jellyfish(9, 10, 6, seed=2)  # 36 hosts -> 6x6 2-D grid

    def test_basic_run(self, topo):
        r = stencil_time(topo, "2dnn", "redksp", mapping="linear", seed=0,
                         total_bytes=1e6)
        assert r.makespan > 0
        # 36 ranks x 1 MB over 20 GBps: sub-millisecond scale.
        assert r.makespan_ms() < 10.0

    def test_mapping_changes_result(self, topo):
        a = stencil_time(topo, "2dnn", "ksp", mapping="linear", seed=0)
        b = stencil_time(topo, "2dnn", "ksp", mapping="random", seed=0)
        assert a.makespan != b.makespan

    def test_invalid_mapping(self, topo):
        with pytest.raises(ConfigurationError):
            stencil_time(topo, "2dnn", "ksp", mapping="diagonal")

    def test_more_data_takes_longer(self, topo):
        a = stencil_time(topo, "2dnn", "ksp", total_bytes=1e6, seed=0)
        b = stencil_time(topo, "2dnn", "ksp", total_bytes=2e6, seed=0)
        assert b.makespan > a.makespan

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_bytes_rejected(self, topo, bad):
        with pytest.raises(SimulationError, match=f"has {bad} bytes"):
            stencil_time(topo, "2dnn", "redksp", k=4, total_bytes=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_bandwidth_rejected(self, topo, bad):
        with pytest.raises(SimulationError, match=f"finite and positive, got {bad}"):
            stencil_time(topo, "2dnn", "redksp", k=4, link_bandwidth=bad)

    def test_bandwidth_scales_time(self, topo):
        a = stencil_time(topo, "2dnn", "ksp", link_bandwidth=20e9, seed=0)
        b = stencil_time(topo, "2dnn", "ksp", link_bandwidth=10e9, seed=0)
        assert b.makespan == pytest.approx(2 * a.makespan, rel=1e-6)

    def test_shared_path_cache_reused(self, topo):
        pc = PathCache(topo, "redksp", k=4, seed=9)
        r1 = stencil_time(topo, "2dnn", "redksp", paths=pc, seed=0)
        r2 = stencil_time(topo, "2dnn", "redksp", paths=pc, seed=0)
        assert r1.makespan == pytest.approx(r2.makespan)

    def test_iterations_accumulate(self, topo):
        pc = PathCache(topo, "redksp", k=4, seed=9)
        one = stencil_time(topo, "2dnn", "redksp", paths=pc, seed=0, iterations=1)
        three = stencil_time(topo, "2dnn", "redksp", paths=pc, seed=0, iterations=3)
        # Three sequential phases take roughly three times one phase
        # (adaptive choices vary slightly between phases).
        assert three.makespan == pytest.approx(3 * one.makespan, rel=0.25)
        assert three.makespan > one.makespan
        assert three.total_bytes == pytest.approx(3 * one.total_bytes)
        # Completion times are monotone across phase boundaries.
        assert three.flow_completion.max() == pytest.approx(three.makespan)

    def test_iterations_validation(self, topo):
        with pytest.raises(ConfigurationError):
            stencil_time(topo, "2dnn", "ksp", iterations=0)
