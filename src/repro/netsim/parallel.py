"""Process-parallel simulation sweeps.

The cycle-level experiments are embarrassingly parallel across
(scheme, mechanism, pattern, rate) cells, and each cell is seconds to
minutes of pure-Python work, so a process pool gives near-linear speedup
on a multicore machine.  This module runs a *grid* of saturation sweeps in
parallel:

- the topology document and the warmed per-scheme path tables are shipped
  **once per worker** through the pool initializer — not once per task —
  so task tuples stay a few hundred bytes and the pool's IPC cost is
  independent of the grid size (Yen's algorithm still runs once, in the
  parent);
- each grid cell gets an independent, deterministic random stream derived
  from (master seed, cell index), so results are identical whatever the
  worker count, chunking, or completion order — including ``processes=1``,
  which runs inline and is what the test suite exercises deterministically.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import PathArena
from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.batchcore import (
    BATCHABLE_MECHANISMS,
    BatchLane,
    BatchSimulator,
    lane_vc_count,
)
from repro.netsim.config import SimConfig
from repro.netsim.sweep import (
    LadderSearch,
    check_ladder,
    rung_seeds,
    saturation_throughput,
)
from repro.netsim.simulator import PatternTraffic, Simulator
from repro.obs import layers
from repro.obs import monitor as obs_monitor
from repro.obs.progress import Progress
from repro.topology.jellyfish import Jellyfish
from repro.topology.serialization import topology_from_dict, topology_to_dict
from repro.traffic.patterns import Pattern

__all__ = ["GridCell", "run_batched_ladders", "run_saturation_grid"]


@dataclass(frozen=True)
class GridCell:
    """One completed grid cell: configuration plus measured throughput."""

    scheme: str
    mechanism: str
    pattern_index: int
    throughput: float


# Per-worker state built once by the pool initializer: the rebuilt topology
# and one warmed PathCache per scheme, plus the parent's capture-layer
# configurations (``repro.obs.layers.active_configs``); cells run under
# fresh recorders built from them and ship their snapshots home for
# merging.  ``_GRID_HB`` holds the live monitor's worker-side heartbeater
# (fed by the parent's Manager queue, or its ``post`` callable inline).
_GRID_STATE: List[Optional[Tuple[Jellyfish, Dict[str, PathCache]]]] = [None]
_GRID_CFGS: List[Dict[str, dict]] = [{}]
_GRID_HB: List[Optional[obs_monitor.Heartbeater]] = [None]

#: One grid cell's result: the cell plus ``{layer: snapshot}`` of every
#: capture layer on, or ``None`` when all are off.
CellResult = Tuple[GridCell, Optional[Dict[str, dict]]]


def _grid_init(
    topo_doc, k, cache_seed, states, cfgs=None, mon_sink=None
) -> None:
    """Pool initializer: rebuild the topology and warmed caches once.

    ``states`` maps scheme -> a :class:`PathArena` (inline runs) or a
    shared-memory descriptor dict from ``PathArena.to_shm`` (pool workers
    attach the parent's block zero-copy).
    """
    import os

    topology = topology_from_dict(topo_doc)
    caches: Dict[str, PathCache] = {}
    for scheme, state in states.items():
        cache = PathCache(topology, scheme, k=k, seed=cache_seed)
        if isinstance(state, PathArena):
            cache.attach_arena(state)
        else:
            cache.attach_arena(PathArena.from_shm(state))
        caches[scheme] = cache
    _GRID_STATE[0] = (topology, caches)
    _GRID_CFGS[0] = dict(cfgs or {})
    _GRID_HB[0] = (
        obs_monitor.Heartbeater(mon_sink, worker=os.getpid())
        if mon_sink is not None else None
    )


def _ship_states(caches: Dict[str, PathCache], processes: int):
    """Package warmed caches for worker shipment.

    Inline runs (``processes == 1``) hand the per-scheme
    :class:`PathArena` straight to ``_grid_init``.  Pool runs move each
    arena into a shared-memory block and ship only its ~200-byte
    descriptor through the initializer, so workers map the parent's
    tables zero-copy instead of unpickling per-pair ``PathSet`` objects.
    Returns ``(states, shms)``; the caller must close and unlink every
    block in ``shms`` after the pool has joined.
    """
    states: Dict[str, object] = {}
    shms: list = []
    for scheme, cache in caches.items():
        arena = PathArena.from_cache(cache)
        if processes == 1:
            states[scheme] = arena
        else:
            shm, descriptor = arena.to_shm()
            shms.append(shm)
            states[scheme] = descriptor
    return states, shms


def _run_cell(args) -> CellResult:
    """Worker: run one saturation sweep against the initializer's state.

    The sweep runs under fresh recorders for every capture layer the
    parent has on (metrics: simulator flit/stall counters, per-link flit
    arrays, cache hit/miss counts; trace; time series; link state; flow
    stats), whose snapshots come back with the cell.  The parent merges
    them in task order (``pool.map`` preserves it), so its aggregates
    are identical for any worker count.
    """
    (
        scheme, mechanism, pattern_index, pattern_flows, n_hosts,
        rates, config, cell_seed,
    ) = args
    topology, caches = _GRID_STATE[0]
    pattern = Pattern("grid", n_hosts, pattern_flows)
    hb = _GRID_HB[0]
    if hb is not None:
        hb.task(f"{scheme}/{mechanism} p{pattern_index}")
    with layers.capture(_GRID_CFGS[0]) as recs:
        if hb is not None and "timeseries" in recs:
            recs["timeseries"].on_window = hb.window
        th, _ = saturation_throughput(
            topology, caches[scheme], mechanism, PatternTraffic(pattern),
            rates=rates, config=config, seed=np.random.SeedSequence(cell_seed),
        )
    if hb is not None:
        hb.done()
    snaps = _snapshots(recs)
    return GridCell(scheme, mechanism, pattern_index, th), snaps or None


def run_batched_ladders(
    topology: Jellyfish,
    jobs: Sequence[Tuple[PathCache, str, object, object]],
    rates: Sequence[float],
    config: SimConfig,
    cfgs: Mapping[str, dict],
    hb: Optional[obs_monitor.Heartbeater] = None,
) -> List[Tuple[float, Optional[Dict[str, dict]]]]:
    """Saturation searches of many runs, stepped through the batched engine.

    ``jobs`` holds one ``(cache, mechanism, traffic, ladder seed)`` per
    saturation sweep, every mechanism batchable and the flight recorder
    off.  Each job searches the strictly increasing ladder ``rates`` with
    its own :class:`~repro.netsim.sweep.LadderSearch`, as
    :func:`~repro.netsim.sweep.saturation_throughput` does, and all jobs
    advance one probe per step: at each step the jobs still searching are
    grouped by (scheme, VC count) — lanes of one batch must share a
    buffer layout — and packed into batches of at most
    ``config.batch_lanes`` lanes, each one lock-step
    :class:`~repro.netsim.batchcore.BatchSimulator` run whose lanes may
    probe different rates; a pack of one lane runs its probe on the
    per-run fast engine instead, which is faster than a one-lane batch
    and byte-identical to it.  Rung ``i`` of a job runs with the ``i``-th
    run seed drawn from ``default_rng(seed)`` (:func:`rung_seeds`), the
    seed the serial sweep gives it.

    Each lane's telemetry is published under fresh recorders for the
    capture layers in ``cfgs`` and each job's probes are merged in probe
    order, the serial sweep's run order, so each job's throughput and
    ``{layer: snapshot}`` are byte-identical to its serial
    ``saturation_throughput`` run whatever the lane packing.  Returns
    ``(throughput, snapshots or None)`` per job, in job order.
    """
    check_ladder(rates)
    seeds = [
        rung_seeds(np.random.default_rng(job[3]), len(rates)) for job in jobs
    ]
    searches = [LadderSearch(len(rates)) for _ in jobs]
    group_of = [
        (cache.selector.name, lane_vc_count(topology, cache, mech, config))
        for cache, mech, _traffic, _seed in jobs
    ]
    probes: List[List[dict]] = [[] for _ in jobs]

    while True:
        step = [search.next_rung() for search in searches]
        groups: Dict[tuple, List[int]] = {}
        for i, rung in enumerate(step):
            if rung is not None:
                groups.setdefault(group_of[i], []).append(i)
        if not groups:
            break
        for key in sorted(groups):
            members = groups[key]
            cache = jobs[members[0]][0]
            for s in range(0, len(members), config.batch_lanes):
                pack = members[s : s + config.batch_lanes]
                runs = [
                    (
                        float(rates[step[i]]),
                        np.random.default_rng(seeds[i][step[i]]),
                    )
                    for i in pack
                ]
                if hb is not None:
                    hb.task(
                        f"{key[0]} rates={sorted({r for r, _ in runs})} "
                        f"x{len(pack)} lanes"
                    )
                if len(pack) == 1:
                    # A one-lane batch runs slower than the fast engine,
                    # so a lone job's probe runs there, under the same
                    # per-probe capture the batch publishes each lane in.
                    i, (rate, seed) = pack[0], runs[0]
                    with layers.capture(cfgs) as recs:
                        results = [
                            Simulator(
                                topology, cache, jobs[i][1], jobs[i][2],
                                rate, config=config, seed=seed,
                            ).run()
                        ]
                    snaps = [_snapshots(recs)]
                else:
                    lanes = [
                        BatchLane(jobs[i][1], jobs[i][2], rate, seed=seed)
                        for i, (rate, seed) in zip(pack, runs)
                    ]
                    batch = BatchSimulator(topology, cache, lanes, config)
                    results = batch.run(
                        publish=False, observe="metrics" in cfgs
                    )
                    snaps = []
                    for j in range(len(pack)):
                        with layers.capture(cfgs) as recs:
                            if recs:
                                batch.publish_lane(j)
                        snaps.append(_snapshots(recs))
                for i, result, snap in zip(pack, results, snaps):
                    if snap:
                        probes[i].append(snap)
                    searches[i].record(step[i], result.saturated)
                if hb is not None:
                    hb.done()

    out = []
    for search, snaps in zip(searches, probes):
        merged = None
        if snaps:
            with layers.capture(cfgs) as recs:
                for snap in snaps:  # probe order = the serial run order
                    layers.merge(snap)
            merged = _snapshots(recs)
        out.append((search.answer(rates), merged))
    return out


def _snapshots(recs: Mapping[str, object]) -> Dict[str, dict]:
    """``{layer: snapshot}`` of a :func:`repro.obs.layers.capture` block."""
    return {name: rec.snapshot() for name, rec in recs.items()}


def _run_cell_batch(chunk) -> List[CellResult]:
    """Worker: step a chunk of grid cells' searches through the batched engine.

    Batchable cells go through :func:`run_batched_ladders` together,
    which runs a probe packed alone on the fast engine; cells the
    batched engine cannot take (vanilla UGAL; every cell while the
    flight recorder is on) fall back to :func:`_run_cell` unchanged.
    Returns one ``_run_cell``-shaped result per cell, in chunk order.
    """
    topology, caches = _GRID_STATE[0]
    cfgs = _GRID_CFGS[0]
    out: List[Optional[CellResult]] = [None] * len(chunk)
    batchable: List[int] = []
    jobs = []
    for i, task in enumerate(chunk):
        scheme, mechanism, _, flows, n_hosts, _, _, cell_seed = task
        if "trace" in cfgs or mechanism not in BATCHABLE_MECHANISMS:
            out[i] = _run_cell(task)
            continue
        batchable.append(i)
        jobs.append((
            caches[scheme], mechanism,
            PatternTraffic(Pattern("grid", n_hosts, flows)),
            np.random.SeedSequence(cell_seed),
        ))
    if jobs:
        results = run_batched_ladders(
            topology, jobs, chunk[0][5], chunk[0][6], cfgs, _GRID_HB[0]
        )
        for i, (th, snaps) in zip(batchable, results):
            scheme, mechanism, pattern_index = chunk[i][:3]
            out[i] = (GridCell(scheme, mechanism, pattern_index, th), snaps)
    return out


def run_saturation_grid(
    topology: Jellyfish,
    schemes: Sequence[str],
    mechanisms: Sequence[str],
    patterns: Sequence[Pattern],
    *,
    k: int = 8,
    rates: Sequence[float],
    config: SimConfig = SimConfig(),
    seed: int = 0,
    processes: int = 1,
) -> Dict[Tuple[str, str], float]:
    """Saturation throughput for every (scheme, mechanism) pair, averaged
    over ``patterns``, running cells across ``processes`` workers.

    Returns ``{(scheme, mechanism): mean saturation throughput}``.
    """
    if processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    if not schemes or not mechanisms or not patterns:
        raise ConfigurationError("schemes, mechanisms and patterns must be non-empty")

    topo_doc = topology_to_dict(topology)
    # Warm one cache per scheme in the parent — only the pairs the
    # patterns actually touch (on-demand) — then ship the flat arena to
    # the workers.
    caches: Dict[str, PathCache] = {}
    pair_lists = [
        sorted(
            {
                (topology.switch_of_host(s), topology.switch_of_host(d))
                for s, d in p.flows
            }
        )
        for p in patterns
    ]
    for scheme in schemes:
        cache = PathCache(topology, scheme, k=k, seed=seed)
        for pairs in pair_lists:
            cache.precompute(pairs)
        caches[scheme] = cache
    states, shms = _ship_states(caches, processes)

    tasks = []
    cell = 0
    for scheme in schemes:
        for mechanism in mechanisms:
            for i, pattern in enumerate(patterns):
                tasks.append(
                    (
                        scheme, mechanism, i, pattern.flows, pattern.n_hosts,
                        tuple(rates), config, (seed, cell),
                    )
                )
                cell += 1

    progress = Progress(len(tasks), "saturation-grid")
    mon = obs_monitor.active()
    if mon is not None:
        mon.begin("saturation-grid", len(tasks))
    # Inline runs feed the monitor through its ``post`` callable; pool
    # workers get a Manager-queue proxy (picklable through initargs).
    sink = None
    if mon is not None:
        sink = mon.post if processes == 1 else mon.queue()
    initargs = (topo_doc, k, seed, states, layers.active_configs(), sink)
    cells: List[GridCell] = []

    def _collect(cell_result: CellResult):
        cell, snaps = cell_result
        cells.append(cell)
        layers.merge(snaps)
        progress.step()
        if mon is not None:
            mon.step()

    batched = config.batch_lanes > 1
    try:
        if processes == 1:
            # Inline cells use the same per-cell capture-and-merge path as
            # the pool, so serial and parallel runs aggregate identical
            # telemetry.
            _grid_init(*initargs)
            try:
                if batched:
                    for result in _run_cell_batch(tasks):
                        _collect(result)
                else:
                    for t in tasks:
                        _collect(_run_cell(t))
            finally:
                _GRID_STATE[0] = None
                _GRID_CFGS[0] = {}
                _GRID_HB[0] = None
        else:
            with ProcessPoolExecutor(
                max_workers=processes, initializer=_grid_init, initargs=initargs,
            ) as pool:
                if batched:
                    # One contiguous chunk of cells per worker; a worker
                    # steps its own chunk's searches, so pool workers and lane
                    # packing compose.  Cell seeds depend only on (master
                    # seed, cell index) and snapshots are per cell, so
                    # any chunking yields identical results.
                    n_chunks = min(processes, len(tasks))
                    chunks = [
                        [tasks[int(i)] for i in idx]
                        for idx in np.array_split(
                            np.arange(len(tasks)), n_chunks
                        )
                        if len(idx)
                    ]
                    for results in pool.map(_run_cell_batch, chunks):
                        for result in results:
                            _collect(result)
                else:
                    chunksize = max(1, len(tasks) // (4 * processes))
                    for cell_result in pool.map(
                        _run_cell, tasks, chunksize=chunksize
                    ):
                        _collect(cell_result)
    finally:
        # The pool context manager has joined its workers by the time we
        # get here, so the parent can safely tear down the shared blocks.
        for shm in shms:
            shm.close()
            shm.unlink()
        if mon is not None:
            mon.finish()

    out: Dict[Tuple[str, str], List[float]] = {}
    for c in cells:
        out.setdefault((c.scheme, c.mechanism), []).append(c.throughput)
    return {key: float(np.mean(vals)) for key, vals in out.items()}
