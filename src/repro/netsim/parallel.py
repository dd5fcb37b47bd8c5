"""Process-parallel saturation grids.

The cycle-level experiments are embarrassingly parallel across
(scheme, mechanism, pattern, rate) cells, and each cell is seconds to
minutes of pure-Python work, so a process pool gives near-linear speedup
on a multicore machine.  :func:`run_cells` runs every saturation grid
(:func:`run_saturation_grid`, Figures 7-10) in parallel:

- the topology document, the patterns and the warmed per-scheme path
  tables are shipped **once per worker** through the pool initializer —
  not once per task — so task tuples stay a few hundred bytes and the
  pool's IPC cost is independent of the grid size (Yen's algorithm still
  runs once, in the parent);
- each grid cell carries its own deterministic seed, so results are
  identical whatever the worker count, chunking, or completion order —
  including ``processes=1``, which runs inline on the caller's own
  topology and caches and is what the test suite exercises
  deterministically.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.utils.rng import SeedLike

__all__ = ["GridCell", "run_cells", "run_saturation_grid"]


@dataclass(frozen=True)
class GridCell:
    """One completed grid cell: configuration plus measured throughput."""

    scheme: str
    mechanism: str
    pattern_index: int
    throughput: float


#: One grid cell to run: (scheme, mechanism, pattern index, search seed).
Cell = Tuple[str, str, int, SeedLike]

# Per-worker state set once per grid: the topology, one warmed PathCache
# per scheme (rebuilt by a pool worker's initializer, the caller's own
# inline), the patterns, the ladder, the sim config,
# the parent's capture-layer configurations
# (``repro.obs.layers.active_configs``; cells run under fresh recorders
# built from them and ship their snapshots home for merging) and the live
# monitor's worker-side heartbeater (fed by the parent's Manager queue, or
# its ``post`` callable inline).
_GRID_STATE: List[Optional[tuple]] = [None]

#: One grid cell's result: the cell plus ``{layer: snapshot}`` of every
#: capture layer on, or ``None`` when all are off.
CellResult = Tuple[GridCell, Optional[Dict[str, dict]]]


def _set_grid_state(topology, caches, patterns, rates, config, cfgs, mon_sink) -> None:
    """Install the state every cell of the grid runs against."""
    import os

    hb = (
        obs_monitor.Heartbeater(mon_sink, worker=os.getpid())
        if mon_sink is not None else None
    )
    _GRID_STATE[0] = (topology, caches, patterns, rates, config, cfgs, hb)


def _grid_init(topo_doc, specs, states, *grid_args) -> None:
    """Pool initializer: rebuild the topology and warmed caches once.

    ``specs`` maps scheme -> the cache's ``(k, seed)``, and ``states``
    maps scheme -> a shared-memory descriptor dict from
    ``PathArena.to_shm`` (the worker attaches the parent's block
    zero-copy).
    """
    topology = topology_from_dict(topo_doc)
    caches: Dict[str, PathCache] = {}
    for scheme, state in states.items():
        k, seed = specs[scheme]
        cache = PathCache(topology, scheme, k=k, seed=seed)
        cache.attach_arena(PathArena.from_shm(state))
        caches[scheme] = cache
    _set_grid_state(topology, caches, *grid_args)


def _ship_states(caches: Mapping[str, PathCache]):
    """Package warmed caches for a process pool.

    Each scheme's tables move into a shared-memory block and only its
    ~200-byte descriptor ships through the initializer, so workers map
    the parent's tables zero-copy instead of unpickling per-pair
    ``PathSet`` objects.  Returns ``(states, shms)``; the caller must
    close and unlink every block in ``shms`` after the pool has joined.
    """
    states: Dict[str, dict] = {}
    shms: list = []
    for scheme, cache in caches.items():
        shm, states[scheme] = PathArena.from_cache(cache).to_shm()
        shms.append(shm)
    return states, shms


def _run_cell_batch(chunk: Sequence[Cell]) -> List[CellResult]:
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
    topology, caches, patterns, rates, config, cfgs, hb = _GRID_STATE[0]
    jobs = [
        (caches[scheme], mechanism, PatternTraffic(patterns[i]), seed)
        for scheme, mechanism, i, seed in chunk
    ]
    results = search_saturation(topology, jobs, rates, config, cfgs, hb)
    return [
        (GridCell(scheme, mechanism, i, th), snaps)
        for (scheme, mechanism, i, _), (th, _, snaps) in zip(chunk, results)
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


def run_cells(
    topology: Jellyfish,
    caches: Mapping[str, PathCache],
    patterns: Sequence[Pattern],
    chunks: Sequence[Sequence[Cell]],
    rates: Sequence[float],
    config: SimConfig,
    processes: int = 1,
) -> Dict[Tuple[str, str], float]:
    """Run a grid's chunks of cells on ``processes`` workers.

    ``caches`` holds one path cache per scheme, warmed here for every
    pattern before any cell runs.  Inline cells run on these caches and
    ``topology`` themselves; pool workers rebuild each cache with its own
    ``k`` and seed.  A chunk is one ``search_saturation`` job list, so
    only its cells can share a batch.  Each cell's telemetry merges home
    in cell order.  Returns ``{(scheme, mechanism): mean saturation
    throughput}``.
    """
    if processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    # Warm only the pairs the patterns touch, in the parent; a pool then
    # gets the flat arenas through shared memory.
    pair_lists = [
        sorted(
            {
                (topology.switch_of_host(s), topology.switch_of_host(d))
                for s, d in p.flows
            }
        )
        for p in patterns
    ]
    for cache in caches.values():
        for pairs in pair_lists:
            cache.precompute(pairs)

    n_cells = sum(len(chunk) for chunk in chunks)
    progress = Progress(n_cells, "saturation-grid")
    mon = obs_monitor.active()
    if mon is not None:
        mon.begin("saturation-grid", n_cells)
    # Inline runs feed the monitor through its ``post`` callable; pool
    # workers get a Manager-queue proxy (picklable through initargs).
    sink = None
    if mon is not None:
        sink = mon.post if processes == 1 else mon.queue()
    grid_args = (
        tuple(patterns), tuple(rates), config, layers.active_configs(), sink,
    )
    out: Dict[Tuple[str, str], List[float]] = {}

    def _collect(cell_result: CellResult):
        cell, snaps = cell_result
        out.setdefault((cell.scheme, cell.mechanism), []).append(cell.throughput)
        layers.merge(snaps)
        progress.step()
        if mon is not None:
            mon.step()

    shms: list = []
    try:
        if processes == 1:
            # Inline cells use the same per-cell capture-and-merge path as
            # the pool, so serial and parallel runs aggregate identical
            # telemetry.
            _set_grid_state(topology, dict(caches), *grid_args)
            try:
                for chunk in chunks:
                    for result in _run_cell_batch(chunk):
                        _collect(result)
            finally:
                _GRID_STATE[0] = None
        else:
            specs = {s: (cache.k, cache.seed) for s, cache in caches.items()}
            states, shms = _ship_states(caches)
            initargs = (topology_to_dict(topology), specs, states, *grid_args)
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

    return {key: float(np.mean(vals)) for key, vals in out.items()}


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

    Cell ``c`` in (scheme, mechanism, pattern) order searches with
    ``SeedSequence((seed, c))`` on ``PathCache(topology, scheme, k, seed)``.
    Returns ``{(scheme, mechanism): mean saturation throughput}``.
    """
    if processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    if not schemes or not mechanisms or not patterns:
        raise ConfigurationError("schemes, mechanisms and patterns must be non-empty")

    caches = {scheme: PathCache(topology, scheme, k=k, seed=seed) for scheme in schemes}
    cells = [
        (scheme, mechanism, i, np.random.SeedSequence((seed, c)))
        for c, (scheme, mechanism, i) in enumerate(
            itertools.product(schemes, mechanisms, range(len(patterns)))
        )
    ]
    size = _chunk_size(len(cells), processes, config.batch_lanes)
    chunks = [cells[i : i + size] for i in range(0, len(cells), size)]
    return run_cells(topology, caches, patterns, chunks, rates, config, processes)
