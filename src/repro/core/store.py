"""Persistent on-disk path-table store.

Path tables are a pure function of ``(topology, scheme, k, seed)`` — the
:class:`~repro.core.cache.PathCache` contract — so repeated experiment runs
can skip Yen's algorithm entirely by persisting the computed
:class:`~repro.core.path.PathSet`\\ s between processes.  The store keys
each table by a SHA-256 content hash of the exact topology document, the
selector signature, ``k``, and the master seed; any change to any of them
lands in a different file, so stale tables can never be served.

Robustness rules:

- **versioned format** — files carry a format tag and their own key; a
  mismatch (old version, renamed file, foreign content) reads as a miss;
- **corruption-safe load** — any unreadable, truncated, or structurally
  invalid file is ignored (logged as a ``path_store.corrupt_file``
  warning event and counted in ``core.store.corrupt``) and the paths are
  recomputed; loading never raises;
- **atomic save** — writes go to a temp file first and ``os.replace`` into
  place, so a crashed writer cannot leave a half-written table behind;
  saves merge with previously persisted entries, so partial warms
  (pair-sampled experiments) accumulate instead of clobbering each other.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path as FsPath

from repro.core.arena import ArenaFormatError, PathArena
from repro.obs import log, metrics
from repro.topology.serialization import topology_to_dict

__all__ = ["ArenaStore", "DEFAULT_STORE_DIR"]

# Hashed into every store key, so it keeps its original name: changing it
# would turn every persisted arena into a miss.
_KEY_FORMAT = "repro-pathstore-v1"

#: Default store location; override with the ``REPRO_PATH_STORE`` env var.
DEFAULT_STORE_DIR = FsPath(
    os.environ.get(
        "REPRO_PATH_STORE",
        str(FsPath.home() / ".cache" / "repro" / "path-tables"),
    )
)


class ArenaStore:
    """A directory of persisted path arenas, one ``arena-<key>.npz`` per key.

    Tables persist as flat CSR arrays
    (:class:`~repro.core.arena.PathArena`) and load as memory-mapped
    views, so a warm start costs directory metadata, not a parse of every
    path.  Foreign format tags and version mismatches read as a miss, any
    other unreadable file counts ``core.store.corrupt`` and reads as a
    miss — loading never raises.

    Use through :meth:`repro.core.cache.PathCache.warm` for the full
    load -> compute-missing -> persist pipeline, or drive ``load``/``save``
    directly.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = FsPath(root)

    @classmethod
    def default(cls) -> "ArenaStore":
        """The store at :data:`DEFAULT_STORE_DIR` (``REPRO_PATH_STORE``)."""
        return cls(DEFAULT_STORE_DIR)

    def cache_key(self, cache) -> str:
        """SHA-256 identifying ``cache``'s path table.

        Covers the exact adjacency (not just RRG parameters), the selector
        signature (scheme name plus any constructor knobs), ``k`` and the
        master seed — everything the cached PathSets are a function of.
        """
        doc = {
            "format": _KEY_FORMAT,
            "topology": topology_to_dict(cache.topology),
            "scheme": list(cache.selector.signature()),
            "k": cache.k,
            "seed": cache.seed,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def file_for(self, cache) -> FsPath:
        """The arena file that holds (or would hold) ``cache``'s table."""
        return self.root / f"arena-{self.cache_key(cache)}.npz"

    def _gauge(self, cache, arena=None) -> None:
        arena = cache.arena if arena is None else arena
        if arena is not None:
            metrics.gauge("core.arena_bytes").set(arena.nbytes)
        metrics.gauge("core.pairs_resident").set(len(cache))

    # ----------------------------------------------------------- load/save
    def load(self, cache) -> int:
        """Attach the persisted arena for ``cache``'s key, memory-mapped.

        Returns the number of resident pairs imported; 0 on miss or any
        form of corruption (never raises — the caller just recomputes).
        A hit attaches the arena zero-copy; PathSet views materialise
        lazily on first use.
        """
        target = self.file_for(cache)
        arena = self._read_arena(target, self.cache_key(cache))
        if arena is None:
            metrics.counter("core.store.load_miss").inc()
            return 0
        cache.attach_arena(arena)
        metrics.counter("core.store.load_hit").inc()
        metrics.counter("core.store.loaded_pairs").inc(len(arena))
        self._gauge(cache)
        log.debug(
            "path_store.loaded", path=str(target), pairs=len(arena)
        )
        return len(arena)

    def save(self, cache) -> FsPath:
        """Persist every resident pair, merged with prior entries, atomically."""
        key = self.cache_key(cache)
        target = self.file_for(cache)
        fresh = PathArena.from_cache(cache, key=key)
        prior = self._read_arena(target, key)
        arena = fresh if prior is None else PathArena.merge(
            [prior, fresh], key=key
        )
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
        try:
            arena.save_npz(tmp)
            os.replace(tmp, target)
        finally:
            if tmp.exists():  # pragma: no cover - crash-path hygiene
                tmp.unlink()
        metrics.counter("core.store.saved_pairs").inc(len(arena))
        self._gauge(cache, arena)
        log.debug("path_store.saved", path=str(target), pairs=len(arena))
        return target

    def _read_arena(self, path: FsPath, expected_key: str):
        try:
            arena = PathArena.load_npz(path)
        except FileNotFoundError:
            return None
        except ArenaFormatError:
            # Foreign tag or version: a valid file, just not ours.
            return None
        except Exception as exc:  # corruption-safe: recompute, never crash
            metrics.counter("core.store.corrupt").inc()
            log.warning(
                "path_store.corrupt_file", path=str(path), error=repr(exc)
            )
            return None
        if arena.key != expected_key:
            return None
        return arena
