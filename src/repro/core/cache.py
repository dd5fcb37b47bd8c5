"""Lazy, reproducible per-pair path cache.

Experiments touch wildly different pair sets (a permutation touches ~N
pairs, all-to-all touches all N*(N-1)), so paths are computed on first use
and memoised.  Randomized selectors get a *per-pair* generator derived from
``(master seed, source, destination)``; this makes the cached paths a pure
function of (topology, scheme, k, seed) — independent of which pairs are
requested, or in what order, or whether the cache was warmed before.

That purity is what the fast-path pipeline exploits:

- :meth:`PathCache.precompute_parallel` shards a pair list across a
  process pool — each worker rebuilds the topology once (via an
  initializer, not per task) and computes its shard with the same per-pair
  seeding, so the merged result is byte-identical to a serial warm;
- :meth:`PathCache.warm` composes the whole pipeline: load persisted
  tables from an :class:`~repro.core.store.ArenaStore`, compute whatever is
  missing (optionally in parallel), and persist the union back.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import PathArena
from repro.core.path import PathSet
from repro.core.selectors import PathSelector, make_selector
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.obs import monitor as obs_monitor
from repro.obs.progress import Progress
from repro.topology.jellyfish import Jellyfish
from repro.topology.serialization import topology_from_dict, topology_to_dict
from repro.utils.validation import check_positive_int

__all__ = ["PathCache"]


class PathCache:
    """Memoised ``(source switch, destination switch) -> PathSet`` map.

    Parameters
    ----------
    topology:
        The :class:`~repro.topology.Jellyfish` instance whose switch graph
        paths are computed on.
    scheme:
        Registry name (``"ksp"``, ``"rksp"``, ``"edksp"``, ``"redksp"``,
        ``"llskr"``, ``"sp"``) or an already-built
        :class:`~repro.core.selectors.PathSelector`.
    k:
        Paths requested per pair (selectors may return fewer, e.g. LLSKR or
        Remove-Find shortfall, or the trivial intra-switch pair).
    seed:
        Master seed for randomized selectors.
    """

    def __init__(
        self,
        topology: Jellyfish,
        scheme: str | PathSelector = "ksp",
        k: int = 8,
        seed: int | None = 0,
    ):
        check_positive_int(k, "k")
        self.topology = topology
        self.selector = (
            scheme if isinstance(scheme, PathSelector) else make_selector(scheme)
        )
        self.k = k
        self.seed = 0 if seed is None else int(seed)
        #: Lifetime hit/miss tallies (plain ints — always on; the metrics
        #: registry additionally sees ``core.cache.hit``/``miss`` counters
        #: when telemetry is enabled).
        self.hits = 0
        self.misses = 0
        self._store: Dict[Tuple[int, int], PathSet] = {}
        # Flat CSR arena backing (attach_arena): pairs resident there are
        # cache hits exactly like dict-resident ones; PathSet views are
        # materialised into the dict lazily on first get().
        self._arena = None
        # (source, destination) -> {path nodes: index in the PathSet},
        # built once per pair at cache-warm time (see path_index_map) and
        # shared by every simulator run on this cache.
        self._index_maps: Dict[Tuple[int, int], Dict[Tuple[int, ...], int]] = {}
        # All selections run on the topology's shared BFS kernels, so the
        # per-source level fields are computed once across every pair.
        self._graph = topology.kernels

    def _pair_rng(self, source: int, destination: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(source, destination)
            )
        )

    def get(self, source: int, destination: int) -> PathSet:
        """The PathSet for one switch pair, computing it on first use."""
        key = (source, destination)
        found = self._store.get(key)
        if found is None and self._arena is not None:
            # Arena-resident pair: a warm hit.  The lazy PathSet view is
            # memoised so repeated gets (and path_index_map) share one
            # object, like a dict-resident pair.
            found = self._arena.pathset(source, destination)
            if found is not None:
                self._store[key] = found
        if found is None:
            self.misses += 1
            reg = metrics._active
            if reg is not None:
                reg.counter("core.cache.miss").inc()
            rng = self._pair_rng(source, destination) if self.selector.randomized else None
            found = self.selector.select(
                self._graph, source, destination, self.k, rng
            )
            self._store[key] = found
        else:
            self.hits += 1
            reg = metrics._active
            if reg is not None:
                reg.counter("core.cache.hit").inc()
        return found

    def peek(self, source: int, destination: int) -> Optional[PathSet]:
        """The PathSet for one resident pair, or None — no counters.

        Unlike :meth:`get` this never computes, never tallies hit/miss,
        and never materialises arena views into the dict; engine internals
        use it where the legacy code read ``_store`` directly.
        """
        found = self._store.get((source, destination))
        if found is None and self._arena is not None:
            found = self._arena.pathset(source, destination)
        return found

    def attach_arena(self, arena) -> None:
        """Back this cache with a :class:`~repro.core.arena.PathArena`.

        Arena-resident pairs behave exactly like dict-resident ones
        (warm hits); attaching on top of an existing arena merges, with
        the new arena winning duplicate pairs.
        """
        if arena is None:
            return
        if self._arena is not None and len(self._arena):
            arena = PathArena.merge([self._arena, arena], key=arena.key)
        self._arena = arena

    @property
    def arena(self):
        """The attached :class:`~repro.core.arena.PathArena`, if any."""
        return self._arena

    def max_hops(self) -> int:
        """Longest resident path in hops (floor 1), dict and arena both.

        The VC-count derivations (``Simulator.__init__``, the batched
        engine's lane grouping, the KSP mechanisms' route-hop bound) all
        need the longest path *anywhere in the cache state* — an
        arena-resident pair counts exactly as a dict-resident one.
        """
        longest = 1
        for ps in self._store.values():
            for p in ps:
                if p.hops > longest:
                    longest = p.hops
        if self._arena is not None:
            a = self._arena.max_hops()
            if a > longest:
                longest = a
        return longest

    def iter_entries(self) -> Iterable[Tuple[Tuple[int, int], PathSet]]:
        """Every resident ``((src, dst), PathSet)``, dict winning the arena."""
        for key, ps in self._store.items():
            yield key, ps
        if self._arena is not None:
            for s, d in self._arena.pairs():
                if (s, d) not in self._store:
                    yield (s, d), self._arena.pathset(s, d)

    def path_index_map(
        self, source: int, destination: int
    ) -> Dict[Tuple[int, ...], int]:
        """``{path nodes: index}`` for one pair's PathSet, memoised.

        Consumers that need to map a chosen route back to its position in
        the pair's PathSet (the flight recorder, the fast core's route
        tables) share one dict per pair instead of rebuilding it per
        packet or per run.
        """
        key = (source, destination)
        found = self._index_maps.get(key)
        if found is None:
            found = {
                p.nodes: i for i, p in enumerate(self.get(source, destination))
            }
            self._index_maps[key] = found
        return found

    def precompute(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Warm the cache for the given switch pairs."""
        for s, d in pairs:
            self.get(s, d)

    def precompute_parallel(
        self,
        pairs: Iterable[Tuple[int, int]],
        processes: int = 1,
        chunksize: Optional[int] = None,
    ) -> int:
        """Warm the cache for ``pairs`` across ``processes`` workers.

        Each worker receives the topology document, selector, ``k`` and
        master seed exactly once through a pool initializer, then computes
        pair shards; because every pair's RNG derives from
        ``(seed, source, destination)``, the merged result is byte-identical
        to :meth:`precompute` whatever the worker count, shard boundaries,
        or completion order.  Returns the number of newly computed pairs.

        ``processes=1`` runs inline (no pool, no pickling).

        Worker metric snapshots (path computation counters from
        :mod:`repro.obs.metrics`) are merged into the parent's registry,
        so a parallel warm reports the same telemetry totals as a serial
        one; per-task progress is logged at ``info`` level.
        """
        if processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        missing = sorted(
            {
                (int(s), int(d))
                for s, d in pairs
                if (int(s), int(d)) not in self
            }
        )
        if not missing:
            return 0
        progress = Progress(len(missing), "path-precompute")
        mon = obs_monitor.active()
        if mon is not None:
            mon.begin("path-precompute", len(missing))
        try:
            if processes == 1 or len(missing) < 2 * processes:
                hb = (
                    obs_monitor.Heartbeater(mon.post) if mon is not None else None
                )
                if hb is not None:
                    hb.task(f"{len(missing)} pairs inline")
                for s, d in missing:
                    self.get(s, d)
                    progress.step()
                    if mon is not None:
                        mon.step()
                if hb is not None:
                    hb.done()
                return len(missing)

            if chunksize is None:
                chunksize = max(1, len(missing) // (4 * processes))
            shards = [
                missing[i : i + chunksize]
                for i in range(0, len(missing), chunksize)
            ]
            initargs = (
                topology_to_dict(self.topology), self.selector, self.k,
                self.seed, metrics.enabled(),
                mon.queue() if mon is not None else None,
            )
            with ProcessPoolExecutor(
                max_workers=processes,
                initializer=_precompute_worker_init,
                initargs=initargs,
            ) as pool:
                # Workers return compact CSR arena shards (a few flat
                # arrays) instead of dicts of PathSet objects — the IPC
                # cost per pair is bytes, not pickled object graphs — and
                # the shards merge straight into the cache's arena.
                pending: List[PathArena] = []
                for shard_arena, snap in pool.map(_precompute_worker_run, shards):
                    pending.append(shard_arena)
                    metrics.merge_snapshot(snap)
                    progress.step(len(shard_arena))
                    if mon is not None:
                        mon.step(len(shard_arena))
                if pending:
                    self.attach_arena(PathArena.merge(pending))
            # The shards were all cache misses; keep the parent's plain-int
            # tallies consistent with what a serial warm would have recorded.
            self.misses += len(missing)
            return len(missing)
        finally:
            if mon is not None:
                mon.finish()

    def warm(
        self,
        pairs: Optional[Iterable[Tuple[int, int]]] = None,
        *,
        processes: int = 1,
        store=None,
    ) -> int:
        """The full path-table pipeline: load, compute missing, persist.

        With ``store`` (an :class:`~repro.core.store.ArenaStore`), previously
        persisted tables for this exact ``(topology, scheme, k, seed)`` are
        imported first — a warm run that finds everything on disk never
        touches Yen at all — and any newly computed pairs are saved back.
        ``pairs=None`` means every ordered switch pair (all-pairs studies).
        Returns the number of pairs computed fresh.
        """
        if pairs is None:
            n = self.topology.n_switches
            pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        else:
            pairs = list(pairs)
        if store is not None:
            with metrics.span("paths.store_load"):
                store.load(self)
        with metrics.span("paths.compute"):
            computed = self.precompute_parallel(pairs, processes=processes)
        if store is not None and computed:
            with metrics.span("paths.store_save"):
                store.save(self)
        return computed

    def all_pairs(self) -> Iterable[PathSet]:
        """Compute and yield PathSets for every ordered switch pair.

        Intended for path-quality studies (Tables II-IV); warm the cache
        with :meth:`warm` first to reuse persisted tables and worker pools.
        """
        n = self.topology.n_switches
        for s in range(n):
            for d in range(n):
                if s != d:
                    yield self.get(s, d)

    def export_state(self) -> Dict[Tuple[int, int], PathSet]:
        """A snapshot of every resident PathSet (arena pairs included).

        Legacy API: parallel grids now ship the flat arena (zero-copy
        via shared memory) instead of this dict — see
        :func:`repro.netsim.parallel.run_saturation_grid`.
        """
        return dict(self.iter_entries())

    def import_state(self, state: Dict[Tuple[int, int], PathSet]) -> None:
        """Merge a snapshot from :meth:`export_state` into this cache.

        Imported entries win over recomputation, so a warmed parent cache
        can be distributed to worker processes without re-running Yen's
        algorithm there.
        """
        self._store.update(state)

    def __len__(self) -> int:
        if self._arena is None or not len(self._arena):
            return len(self._store)
        if not self._store:
            return len(self._arena)
        n = self.topology.n_switches
        keys = np.fromiter(
            (s * n + d for s, d in self._store),
            dtype=np.int64, count=len(self._store),
        )
        overlap = int(self._arena.contains_keys(keys).sum())
        return len(self._store) + len(self._arena) - overlap

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        if pair in self._store:
            return True
        return self._arena is not None and pair in self._arena


# -------------------------------------------------------- pool plumbing
#: Per-worker state built once by the pool initializer (the topology and
#: its kernels are ~megabytes; shipping them per task tuple was the seed
#: implementation's dominant serialization cost).  The second slot records
#: whether the parent had telemetry enabled: workers then capture a fresh
#: registry per shard and return its snapshot for merging.
_WORKER_CACHE: List[Optional[PathCache]] = [None]
_WORKER_OBS: List[bool] = [False]
_WORKER_HB: List[Optional["obs_monitor.Heartbeater"]] = [None]


def _precompute_worker_init(topo_doc, selector, k, seed, obs_enabled=False,
                            mon_sink=None) -> None:
    import os

    _WORKER_CACHE[0] = PathCache(
        topology_from_dict(topo_doc), selector, k=k, seed=seed
    )
    _WORKER_OBS[0] = bool(obs_enabled)
    _WORKER_HB[0] = (
        obs_monitor.Heartbeater(mon_sink, worker=os.getpid())
        if mon_sink is not None else None
    )


def _precompute_worker_run(
    pairs: Sequence[Tuple[int, int]],
):
    """Compute one shard; returns ``(PathArena shard, metrics snapshot)``.

    The shard travels back to the parent as a few flat CSR arrays — the
    per-pair IPC cost is the path bytes themselves, not pickled
    PathSet/Path object graphs.
    """
    cache = _WORKER_CACHE[0]
    hb = _WORKER_HB[0]
    n_switches = cache.topology.n_switches
    if hb is not None:
        hb.task(f"shard of {len(pairs)} pairs")
    if not _WORKER_OBS[0]:
        result = {(s, d): cache.get(s, d) for s, d in pairs}
        if hb is not None:
            hb.done()
        return PathArena.from_entries(result, n_switches), None
    with metrics.capture() as reg:
        result = {(s, d): cache.get(s, d) for s, d in pairs}
    if hb is not None:
        hb.done()
    return PathArena.from_entries(result, n_switches), reg.snapshot()
