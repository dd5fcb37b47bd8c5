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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import PathArena
from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.config import SimConfig
from repro.netsim.simulator import PatternTraffic
# Kept bound here, though the grid calls ``search_saturation``: the e2e
# benchmark's tracer (``benchmarks/e2e/trace.py``) wraps
# ``saturation_throughput`` by this module's name.
from repro.netsim.sweep import saturation_throughput  # noqa: F401
from repro.netsim.sweep import search_saturation
from repro.obs import layers
from repro.obs import monitor as obs_monitor
from repro.obs.progress import Progress
from repro.topology.jellyfish import Jellyfish
from repro.topology.serialization import topology_from_dict, topology_to_dict
from repro.traffic.patterns import Pattern

__all__ = ["GridCell", "run_saturation_grid"]


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


def _run_cell_batch(chunk) -> List[CellResult]:
    """Worker: run a chunk of grid cells' searches against the
    initializer's state.

    The chunk's cells are the jobs of one
    :func:`~repro.netsim.sweep.search_saturation` call, which packs the
    cells that can share a batch into lanes and runs each of the others
    alone.  Every cell's probes run under fresh recorders for every
    capture layer the parent has on (metrics: simulator flit/stall
    counters, per-link flit arrays, cache hit/miss counts; trace; time
    series; link state; flow stats), and their snapshots come back with
    the cell.  The parent merges them in task order (``pool.map``
    preserves it), so its aggregates are identical for any worker count
    and chunking.  Returns ``(cell, snapshots or None)`` per cell, in
    chunk order.
    """
    topology, caches = _GRID_STATE[0]
    jobs = [
        (
            caches[scheme], mechanism,
            PatternTraffic(Pattern("grid", n_hosts, flows)),
            np.random.SeedSequence(cell_seed),
        )
        for scheme, mechanism, _, flows, n_hosts, _, _, cell_seed in chunk
    ]
    results = search_saturation(
        topology, jobs, chunk[0][5], chunk[0][6], _GRID_CFGS[0], _GRID_HB[0]
    )
    return [
        (GridCell(scheme, mechanism, pattern_index, th), snaps)
        for (scheme, mechanism, pattern_index, *_), (th, _, snaps)
        in zip(chunk, results)
    ]


def _chunk_size(n_tasks: int, processes: int, lanes: int) -> int:
    """Grid cells per worker call.

    Cells that can pack several lanes go to each worker as one
    contiguous chunk, so a worker's packs fill from its whole share of
    the grid.  Cells that run alone go a few at a time, which balances
    the pool's load, and one at a time inline.  Cell seeds depend only
    on (master seed, cell index) and snapshots are per cell, so any
    chunking yields identical results.
    """
    if lanes > 1:
        return -(-n_tasks // processes)
    if processes == 1:
        return 1
    return max(1, n_tasks // (4 * processes))


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

    size = _chunk_size(len(tasks), processes, config.batch_lanes)
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    try:
        if processes == 1:
            # Inline cells use the same per-cell capture-and-merge path as
            # the pool, so serial and parallel runs aggregate identical
            # telemetry.
            _grid_init(*initargs)
            try:
                for chunk in chunks:
                    for result in _run_cell_batch(chunk):
                        _collect(result)
            finally:
                _GRID_STATE[0] = None
                _GRID_CFGS[0] = {}
                _GRID_HB[0] = None
        else:
            with ProcessPoolExecutor(
                max_workers=processes, initializer=_grid_init, initargs=initargs,
            ) as pool:
                for results in pool.map(_run_cell_batch, chunks):
                    for result in results:
                        _collect(result)
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
