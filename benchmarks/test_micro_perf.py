"""Micro-benchmarks of the performance-critical primitives.

These are real pytest-benchmark measurements (multiple rounds) for the
inner-loop building blocks, so regressions in the hot paths show up even
when the experiment-level benchmarks drown them in fixed cost.
"""

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.appsim import build_workload, run_flows
from repro.appsim.fairshare import maxmin_rates
from repro.core.dijkstra import bfs_levels, shortest_path
from repro.core.yen import k_shortest_paths
from repro.experiments.presets import netsim_preset, stencil_preset
from repro.experiments.tables_stencil import APPS
from repro.netsim import (
    PatternTraffic,
    SimConfig,
    Simulator,
    UniformTraffic,
    latency_curve,
    run_saturation_grid,
    saturation_throughput,
)
from repro.obs import flowstats
from repro.obs import linkstate
from repro.obs import metrics
from repro.obs import timeseries
from repro.obs import trace
from repro.topology.metrics import average_shortest_path_length
from repro.topology.rrg import random_regular_graph
from repro.traffic import random_permutation, random_shift
from repro.traffic.mapping import apply_mapping, linear_mapping
from repro.traffic.stencil import stencil_messages
from repro.utils.rng import spawn_rngs


@pytest.fixture(scope="module")
def topo36():
    return Jellyfish(36, 24, 16, seed=1)


def test_perf_rrg_construction(benchmark):
    """Incremental Jellyfish construction, paper small topology."""
    adj = benchmark(random_regular_graph, 36, 16, 1)
    assert len(adj) == 36


def test_perf_bfs_metrics(benchmark, topo36):
    """All-pairs BFS average shortest path length on RRG(36,24,16)."""
    apl = benchmark(average_shortest_path_length, topo36.adjacency)
    assert 1.3 < apl < 1.8


def test_perf_yen_k8(benchmark, topo36):
    """One Yen KSP(8) invocation on the paper's small topology."""
    paths = benchmark(k_shortest_paths, topo36.adjacency, 0, 20, 8)
    assert len(paths) == 8


def test_perf_edksp_pathcache_warm(benchmark, topo36):
    """Remove-Find over 100 switch pairs."""

    def warm():
        cache = PathCache(topo36, "redksp", k=8, seed=0)
        cache.precompute((0, d) for d in range(1, 26))
        cache.precompute((7, d) for d in range(8, 33))
        return cache

    cache = benchmark(warm)
    assert len(cache) == 50


def test_perf_precompute_allpairs_rksp(benchmark, topo36):
    """Warm all-pairs rKSP(8) precompute on RRG(36,24,16).

    The acceptance benchmark of the fast-path pipeline: every pair of the
    paper's small topology through Yen with randomized tie-breaking.
    """

    def warm():
        cache = PathCache(topo36, "rksp", k=8, seed=0)
        cache.precompute(
            (s, d) for s in range(36) for d in range(36) if s != d
        )
        return cache

    cache = benchmark.pedantic(warm, rounds=2, iterations=1)
    assert len(cache) == 36 * 35


@pytest.fixture(scope="module")
def spur_workload():
    """40 sampled pairs of RRG(720,24,19), each with its first edge banned.

    The ban is the first edge of the pair's min-tie shortest path, as in
    Yen's first spur search from the source: a banned search on the
    topology of the paper's Tables II-IV, 3-4 BFS levels deep.
    """
    topo = Jellyfish(720, 24, 19, seed=1)
    rng = np.random.default_rng(0)
    cases = []
    while len(cases) < 40:
        s, d = (int(x) for x in rng.integers(0, topo.n_switches, 2))
        if s != d:
            first = shortest_path(topo.kernels, s, d)
            cases.append((s, d, frozenset({(first[0], first[1])})))
    return topo.kernels, cases


def test_perf_bfs_banned_sweep_720(benchmark, spur_workload):
    """The complete banned distance field for each of the 40 cases.

    The baseline row of the spur-search ratio gate: ``bfs_levels`` must
    fill every node's distance, so it expands every BFS level.
    """
    kernels, cases = spur_workload

    def sweep():
        return [bfs_levels(kernels, s, banned_edges=ban) for s, _, ban in cases]

    fields = benchmark(sweep)
    assert all((f >= 0).all() for f in fields)


def test_perf_spur_search_720(benchmark, spur_workload):
    """``shortest_path`` under the same bans: the target-directed field.

    It builds only the levels below the destination and writes only the
    destination's distance; the CI perf-smoke job divides the sweep row's
    mean by this row's and fails below the gated ratio.
    """
    kernels, cases = spur_workload

    def search():
        return [shortest_path(kernels, s, d, banned_edges=ban) for s, d, ban in cases]

    paths = benchmark(search)
    assert all(p is not None and p[0] == s for p, (s, _, _) in zip(paths, cases))


def test_perf_fairshare_waterfill(benchmark):
    """Max-min water-filling: 2000 flows over 500 links."""
    rng = np.random.default_rng(0)
    flows = [np.unique(rng.integers(0, 500, size=5)) for _ in range(2000)]

    rates = benchmark(maxmin_rates, flows, 10.0, 500)
    assert (rates > 0).all()


@pytest.fixture(scope="module")
def stencil_cell():
    """The largest small Table V cell: 3dnndiag, rEDKSP, linear mapping,
    seed 0, seeded as ``run_table`` seeds it."""
    preset = stencil_preset("small")
    spec = preset["topo"]
    topo_rng, map_rng, scheme_rng, *_ = spawn_rngs(0, 2 + len(preset["schemes"]))
    topo = Jellyfish(spec.n, spec.x, spec.y, seed=topo_rng)
    app_seed = [int(map_rng.integers(2**31)) for _ in APPS][APPS.index("3dnndiag")]
    cache = PathCache(topo, "redksp", k=preset["k"], seed=int(scheme_rng.integers(2**31)))
    msgs = apply_mapping(
        stencil_messages("3dnndiag", topo.n_hosts, preset["total_bytes"]),
        linear_mapping(topo.n_hosts, topo.n_hosts),
    )
    flows = build_workload(
        topo, msgs, cache, mechanism="ksp_adaptive", chunks=preset["chunks"],
        seed=np.random.default_rng(app_seed),
    )
    cell = dict(flows=flows, capacity=preset["link_bandwidth"], n_links=topo.n_links)
    completion = _run_flows_cold(**cell)
    # The cell's entry in ``run_table5("small", 0).data``.
    assert completion.max() * 1e3 == 0.8581730769230774
    return cell, completion


def _run_flows_cold(flows, capacity, n_links):
    """``run_flows``' event arithmetic, solving every event from level 0
    with the one-shot ``maxmin_rates``: the solver before warm starts."""
    remaining = np.asarray([f.nbytes for f in flows], dtype=np.float64)
    completion = np.zeros(len(flows))
    alive = np.arange(len(flows))
    t = 0.0
    while alive.size:
        rates = maxmin_rates([flows[i].links for i in alive.tolist()], capacity, n_links)
        ttc = remaining[alive] / rates
        dt = float(ttc.min())
        t += dt
        done = ttc <= dt * (1 + 1e-9)
        completion[alive[done]] = t
        alive = alive[~done]
        remaining[alive] -= rates[~done] * dt
    return completion


def test_perf_run_flows_cold(benchmark, stencil_cell):
    """The Table V cell with a cold solve at every completion event.

    The baseline row of the warm-start gate: ``compare.py
    --require-speedup`` divides this row's mean by ``test_perf_run_flows``'
    and the CI perf-smoke job fails below the gated ratio.
    """
    cell, completion = stencil_cell
    got = benchmark.pedantic(
        lambda: _run_flows_cold(**cell), rounds=3, iterations=1, warmup_rounds=1
    )
    assert np.array_equal(got, completion)


def test_perf_run_flows(benchmark, stencil_cell):
    """The same cell through ``run_flows``, each solve resuming from the
    previous event's."""
    cell, completion = stencil_cell
    result = benchmark.pedantic(
        lambda: run_flows(**cell), rounds=3, iterations=1, warmup_rounds=1
    )
    assert np.array_equal(result.flow_completion, completion)


@pytest.mark.obs
def test_perf_simulator_cycles(benchmark):
    """Flit-level simulator throughput: cycles/second at moderate load.

    This is the telemetry layer's perf guard: the simulator is now
    instrumented (flit/stall tallies, link-flit array, occupancy
    sampling) but metrics stay *disabled* here, and ``compare.py`` gates
    this benchmark against the pre-instrumentation baseline — so any
    disabled-mode overhead above the threshold fails the perf harness.
    """
    assert not metrics.enabled()
    assert not timeseries.enabled()
    benchmark.extra_info["engines"] = ["fast"]
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=2)

    def run():
        sim = Simulator(
            topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts),
            0.5, cfg, seed=0,
        )
        return sim.run()

    r = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert r.delivered > 0
    assert metrics.snapshot() is None


@pytest.mark.obs
def test_perf_simulator_cycles_reference(benchmark):
    """The same workload on the reference (object-per-packet) engine.

    Committed next to ``test_perf_simulator_cycles`` so every benchmark
    export records the fast-core speedup as the ratio of the two rows;
    the CI perf-smoke job gates the fast row, and this one documents
    what it is being compared against.
    """
    benchmark.extra_info["engines"] = ["reference"]
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(
        warmup_cycles=100, sample_cycles=100, n_samples=2,
        engine="reference",
    )

    def run():
        sim = Simulator(
            topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts),
            0.5, cfg, seed=0,
        )
        return sim.run()

    r = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert r.delivered > 0


@pytest.fixture(scope="module")
def grid_workload():
    """Shared saturation-grid workload for the engine-tier comparison.

    A mid-size topology with long average paths: enough vectorizable
    router work per cycle for the batched tier to amortise its per-cycle
    fixed costs, at a load below the congestion knee.  The batched win
    grows with topology size (more lanes' worth of numpy work per
    interpreter pass), so this size keeps the CI gate's 2x well clear
    of single-box timing noise.
    """
    topo = Jellyfish(128, 10, 6, seed=7)
    pats = [random_permutation(topo.n_hosts, seed=s) for s in range(4)]
    return topo, pats


def _run_grid(topo, pats, batch_lanes):
    cfg = SimConfig(
        warmup_cycles=200, sample_cycles=200, n_samples=2,
        batch_lanes=batch_lanes,
    )
    return run_saturation_grid(
        topo, ["redksp"], ["ksp_adaptive", "ksp_ugal"], pats,
        k=4, rates=(0.3,), config=cfg, seed=0, processes=1,
    )


@pytest.mark.obs
def test_perf_grid_percell(benchmark, grid_workload):
    """Warm saturation grid on the per-cell fast engine (batch_lanes=1).

    The baseline row of the batched-tier speedup: ``compare.py
    --require-speedup`` divides this row's mean by the batched row's and
    the CI perf-smoke job fails below 2x.
    """
    benchmark.extra_info["engines"] = ["fast"]
    topo, pats = grid_workload
    grid = benchmark.pedantic(
        lambda: _run_grid(topo, pats, 1),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert all(0.0 <= v <= 1.0 for v in grid.values())


@pytest.mark.obs
def test_perf_grid_batched(benchmark, grid_workload):
    """The same warm grid on the batched multi-lane engine (8 lanes).

    Produces byte-identical grid results to the per-cell row (pinned by
    ``tests/test_batchcore_equivalence.py``); only the wall clock may
    differ.
    """
    benchmark.extra_info["engines"] = ["batched"]
    topo, pats = grid_workload
    grid = benchmark.pedantic(
        lambda: _run_grid(topo, pats, 8),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert all(0.0 <= v <= 1.0 for v in grid.values())


@pytest.fixture(scope="module")
def saturation_cell():
    """The seed-0 rEDKSP ``round_robin`` cell of Figure 9 at small scale.

    Seeded as ``run_fig`` seeds it.  The cell never saturates, so a
    climb runs all 10 rungs of the preset's ladder (0.1 to 1.0) and the
    search probes 5 of them (0.1, 0.2, 0.4, 0.8 and 1.0).
    """
    preset = netsim_preset("small", 9)
    spec = preset["topo"]
    topo_rng, pat_rng = spawn_rngs(0, preset["n_patterns"] + 1)
    topo = Jellyfish(spec.n, spec.x, spec.y, seed=topo_rng)
    si = preset["schemes"].index("redksp")
    mi = preset["mechanisms"].index("round_robin")
    cache_seed = [int(topo_rng.integers(2**31)) for _ in range(si + 1)][-1]
    return dict(
        topology=topo,
        paths=PathCache(topo, "redksp", k=preset["k"], seed=cache_seed),
        mechanism="round_robin",
        traffic=PatternTraffic(random_shift(topo.n_hosts, seed=pat_rng)),
        rates=preset["rates"],
        config=preset["config"],
        seed=np.random.SeedSequence(entropy=9, spawn_key=(si, mi, 0)),
    )


def test_perf_saturation_ladder(benchmark, saturation_cell):
    """The cell's saturation rung found by climbing the ladder.

    The baseline row of the search gate: ``compare.py
    --require-speedup`` divides this row's mean by the search row's and
    the CI perf-smoke job fails below the gated ratio.
    """
    benchmark.extra_info["engines"] = ["fast"]
    points = benchmark.pedantic(
        lambda: latency_curve(**saturation_cell, stop_after_saturation=True),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(points) == 10
    assert not any(p.result.saturated for p in points)
    assert points[-1].rate == 1.0


def test_perf_saturation_search(benchmark, saturation_cell):
    """The same cell through ``saturation_throughput``'s ladder search."""
    benchmark.extra_info["engines"] = ["fast"]
    throughput, _ = benchmark.pedantic(
        lambda: saturation_throughput(**saturation_cell),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert throughput == 1.0


def test_perf_path_index_map(benchmark):
    """Memoised ``PathCache.path_index_map`` vs per-call dict rebuild.

    The launch loop used to rebuild ``{path nodes: index}`` for every
    traced packet; the memoised map makes the lookup O(1) after the
    first call per pair.  Benchmarked over every warmed pair to show the
    amortised cost (compare ``test_perf_path_index_map_rebuild``).
    """
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    pairs = [(s, d) for s in range(10) for d in range(10) if s != d]
    cache.precompute(pairs)
    for s, d in pairs:
        cache.path_index_map(s, d)

    def lookup():
        total = 0
        for s, d in pairs:
            total += len(cache.path_index_map(s, d))
        return total

    n = benchmark(lookup)
    assert n > 0


def test_perf_path_index_map_rebuild(benchmark):
    """The pre-memoisation behaviour: rebuild the index map per call."""
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    pairs = [(s, d) for s in range(10) for d in range(10) if s != d]
    cache.precompute(pairs)

    def rebuild():
        total = 0
        for s, d in pairs:
            total += len({p.nodes: i for i, p in enumerate(cache.get(s, d))})
        return total

    n = benchmark(rebuild)
    assert n > 0


@pytest.mark.obs
def test_perf_simulator_cycles_traced(benchmark):
    """The same workload with the flight recorder at ``--trace-sample 64``.

    Reports the sampled-tracing overhead next to the untraced run, so the
    cost of ``--trace-sample 64`` is a number in every benchmark
    comparison.  CI's perf-smoke job gates it like the other
    ``simulator`` rows, at most 25% over its row in
    ``BENCH_2026-08-06_003_simcore.json``.
    """
    assert not trace.enabled()
    benchmark.extra_info["engines"] = ["fast"]
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=2)

    def run():
        with trace.capture(sample=64) as rec:
            sim = Simulator(
                topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts),
                0.5, cfg, seed=0,
            )
            result = sim.run()
        assert rec.n_packets > 0
        return result

    r = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert r.delivered > 0
    assert not trace.enabled()


@pytest.mark.obs
def test_perf_simulator_cycles_timeseries(benchmark):
    """The same workload with the windowed time-series recorder on.

    Reports the cost of ``--timeseries-window 100`` (per-window flushes,
    latency tracking, per-window link-flit tallies) next to the plain and
    traced runs, so enabled-mode overhead is a number in every benchmark
    comparison.
    """
    assert not timeseries.enabled()
    benchmark.extra_info["engines"] = ["fast"]
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=2)

    def run():
        with timeseries.capture(window=100) as rec:
            sim = Simulator(
                topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts),
                0.5, cfg, seed=0,
            )
            result = sim.run()
        assert rec.n_windows > 0
        return result

    r = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert r.delivered > 0
    assert not timeseries.enabled()


@pytest.mark.obs
def test_perf_simulator_cycles_linkstate(benchmark):
    """The same workload with the dense link-state recorder on.

    The congestion-forensics perf guard: ``--linkstate 100`` tallies
    per-link forwarded flits and credit stalls every cycle and samples
    peak VC occupancy at end of cycle, all into preallocated window
    matrices.  The CI perf-smoke job gates this row against the plain
    ``test_perf_simulator_cycles`` run and fails when the enabled-mode
    overhead exceeds 10%.
    """
    assert not linkstate.enabled()
    benchmark.extra_info["engines"] = ["fast"]
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=2)

    def run():
        with linkstate.capture(window=100) as rec:
            sim = Simulator(
                topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts),
                0.5, cfg, seed=0,
            )
            result = sim.run()
        assert rec.n_windows > 0
        return result

    r = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert r.delivered > 0
    assert not linkstate.enabled()


@pytest.mark.obs
def test_perf_simulator_cycles_flowstats(benchmark):
    """The same workload with the per-pair flow-stats recorder on.

    The flow-SLO perf guard: ``--flowstats`` tags every measured ejection
    with its (src, dst) pair and folds the per-run latency lists into
    dense per-pair columns plus an exact latency histogram at end of run.
    The CI perf-smoke job gates this row against the plain
    ``test_perf_simulator_cycles`` run and fails when the enabled-mode
    overhead exceeds 10%.
    """
    assert not flowstats.enabled()
    benchmark.extra_info["engines"] = ["fast"]
    topo = Jellyfish(12, 10, 6, seed=7)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=2)

    def run():
        with flowstats.capture() as rec:
            sim = Simulator(
                topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts),
                0.5, cfg, seed=0,
            )
            result = sim.run()
        assert len(rec.runs) > 0
        return result

    r = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert r.delivered > 0
    assert not flowstats.enabled()


# --------------------------------------------------------------------------
# Path-table store and worker shipping: CSR arena vs pickled tables
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def store_workload(tmp_path_factory):
    """A 1024-switch Jellyfish with 5000 on-demand pairs, persisted once.

    Large enough that rebuilding the table from Python objects dominates,
    which is exactly the cost the arena's mmap load and shared-memory
    attach remove.
    """
    from repro.core.store import ArenaStore

    topo = Jellyfish(1024, 10, 6, seed=7)
    rng = np.random.default_rng(1)
    pairs = set()
    while len(pairs) < 5000:
        s, d = (int(x) for x in rng.integers(0, topo.n_switches, 2))
        if s != d:
            pairs.add((s, d))
    cache = PathCache(topo, "sp", k=1, seed=3)
    cache.precompute(sorted(pairs))
    arena = ArenaStore(tmp_path_factory.mktemp("arena-store"))
    arena.save(cache)
    return topo, cache, arena


def test_perf_store_load_arena_mmap(benchmark, store_workload):
    """A warm start through the memory-mapped CSR arena store.

    Loads attach the flat arrays without touching path bytes; PathSet
    views materialise lazily on first use, so a warm start costs file
    metadata instead of rebuilding 5000 tables.  Gated >= 4x over the
    pickle row below by the CI perf-smoke job.
    """
    topo, _, arena = store_workload

    def load():
        fresh = PathCache(topo, "sp", k=1, seed=3)
        return arena.load(fresh)

    assert benchmark(load) == 5000


def test_perf_ship_states_legacy_pickle(benchmark, store_workload):
    """Per-worker path-table shipping, the pre-arena way: pickle round
    trip of the ``{(s, d): PathSet}`` snapshot plus ``import_state``.

    This is what every pool worker paid at initializer time (the payload
    also crossed the process pipe); the payload bytes land in
    ``extra_info`` next to the descriptor row's.  It is also the baseline
    of both arena gates: store load (>= 4x) and shipping (>= 3x).
    """
    import pickle

    topo, cache, _ = store_workload
    state = cache.export_state()
    benchmark.extra_info["payload_bytes"] = len(pickle.dumps(state))

    def ship():
        worker = PathCache(topo, "sp", k=1, seed=3)
        worker.import_state(pickle.loads(pickle.dumps(state)))
        return len(worker)

    assert benchmark(ship) == 5000


def test_perf_ship_states_arena_shm(benchmark, store_workload):
    """The same shipping through a shared-memory arena descriptor.

    The parent copies the arena into one SharedMemory block once per
    grid; each worker then unpickles a ~200-byte descriptor and attaches
    zero-copy views.  Gated >= 3x over the pickle row by the CI
    perf-smoke job (measured closer to 100x).
    """
    import pickle

    from repro.core.arena import PathArena

    topo, cache, _ = store_workload
    shm, descriptor = PathArena.from_cache(cache).to_shm()
    benchmark.extra_info["payload_bytes"] = len(pickle.dumps(descriptor))
    try:

        def ship():
            worker = PathCache(topo, "sp", k=1, seed=3)
            worker.attach_arena(
                PathArena.from_shm(pickle.loads(pickle.dumps(descriptor)))
            )
            return len(worker)

        assert benchmark(ship) == 5000
    finally:
        shm.close()
        shm.unlink()
