"""Flat CSR path-table arena — the canonical storage format.

A :class:`PathArena` holds the path tables of many ``(source switch,
destination switch)`` pairs in four contiguous numpy arrays:

- ``pair_key`` — sorted ``src * n_switches + dst`` per resident pair;
- ``pair_off`` — CSR offsets from pair index into the path list;
- ``path_off`` — CSR offsets from path index into the node runs;
- ``nodes`` — the concatenated switch-id runs of every path.

The dict-of-:class:`~repro.core.path.PathSet` cache the rest of the code
grew up with costs hundreds of bytes of Python object per *path*; the
arena costs ~10 bytes per node.  At the 20k-switch scale the ROADMAP aims
for (~10^8 pair-paths) only the flat form fits in memory, and it is also
exactly the shape the array-native simulator engines consume, so
:class:`PathSet` views are materialised lazily only where the legacy API
is still used (:meth:`pathset`).

Three transports, all zero- or constant-copy:

- **versioned .npz** — :meth:`save_npz` writes a deterministic,
  byte-reproducible archive (fixed zip timestamps, stored members, sorted
  names); :meth:`load_npz` memory-maps the member payloads in place, so a
  warm start touches no path bytes until the simulator does.
- **shared memory** — :meth:`to_shm` packs every array into one
  :class:`multiprocessing.shared_memory.SharedMemory` block and returns a
  tiny picklable descriptor; :meth:`from_shm` attaches views in a worker
  process without copying or pickling any path data.
- **merge** — :meth:`merge` unions arenas (later wins on duplicate
  pairs), which is how worker-computed shards from a parallel precompute
  land in the parent.
"""

from __future__ import annotations

import io
import zipfile
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.path import Path, PathSet

__all__ = ["PathArena", "ArenaFormatError", "ARENA_FORMAT"]

#: Format tag embedded in every persisted arena; bump on layout changes.
ARENA_FORMAT = "repro-patharena-v1"

_FIELDS = ("pair_key", "pair_off", "path_off", "nodes")
_DTYPES = {
    "pair_key": np.int64,
    "pair_off": np.int64,
    "path_off": np.int64,
    "nodes": np.int32,
}


class ArenaFormatError(Exception):
    """A file is not an arena of this version (foreign tag or layout)."""


class PathArena:
    """Flat CSR store of per-pair path tables (see module docstring)."""

    __slots__ = (
        "n_switches", "key", "pair_key", "pair_off", "path_off", "nodes",
        "_shm", "_mmap",
    )

    def __init__(
        self,
        n_switches: int,
        pair_key: np.ndarray,
        pair_off: np.ndarray,
        path_off: np.ndarray,
        nodes: np.ndarray,
        key: str = "",
    ):
        self.n_switches = int(n_switches)
        self.key = key
        self.pair_key = pair_key
        self.pair_off = pair_off
        self.path_off = path_off
        self.nodes = nodes
        # Backing objects kept alive for the lifetime of the views.
        self._shm = None
        self._mmap = None
        self._validate()

    # ------------------------------------------------------- construction
    @classmethod
    def empty(cls, n_switches: int, key: str = "") -> "PathArena":
        return cls(
            n_switches,
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            key=key,
        )

    @classmethod
    def from_entries(
        cls,
        entries: Dict[Tuple[int, int], PathSet],
        n_switches: int,
        key: str = "",
    ) -> "PathArena":
        """Build an arena from a ``{(src, dst): PathSet}`` mapping."""
        n = int(n_switches)
        items = sorted(
            (s * n + d, ps) for (s, d), ps in entries.items()
        )
        pair_key = np.fromiter(
            (k for k, _ in items), dtype=np.int64, count=len(items)
        )
        pair_off = np.zeros(len(items) + 1, dtype=np.int64)
        path_lens: List[int] = []
        chunks: List[Sequence[int]] = []
        for i, (_, ps) in enumerate(items):
            pair_off[i + 1] = pair_off[i] + len(ps)
            for p in ps:
                path_lens.append(len(p.nodes))
                chunks.append(p.nodes)
        path_off = np.zeros(len(path_lens) + 1, dtype=np.int64)
        np.cumsum(path_lens, out=path_off[1:])
        total = int(path_off[-1])
        nodes = np.empty(total, dtype=np.int32)
        pos = 0
        for run in chunks:
            nodes[pos : pos + len(run)] = run
            pos += len(run)
        return cls(n, pair_key, pair_off, path_off, nodes, key=key)

    @classmethod
    def from_cache(cls, cache, key: str = "") -> "PathArena":
        """Snapshot every pair resident in ``cache`` (dict and arena)."""
        arena = getattr(cache, "_arena", None)
        if arena is not None and not cache._store:
            if key and not arena.key:
                return cls(
                    arena.n_switches, arena.pair_key, arena.pair_off,
                    arena.path_off, arena.nodes, key=key,
                )
            return arena
        fresh = cls.from_entries(
            cache._store, cache.topology.n_switches, key=key
        )
        if arena is None or not len(arena):
            return fresh
        return cls.merge([arena, fresh], key=key or arena.key)

    @classmethod
    def merge(
        cls, arenas: Sequence["PathArena"], key: str = ""
    ) -> "PathArena":
        """Union of ``arenas``; on duplicate pairs the *latest* wins."""
        arenas = [a for a in arenas if a is not None]
        if not arenas:
            raise ValueError("merge needs at least one arena")
        n = arenas[0].n_switches
        for a in arenas:
            if a.n_switches != n:
                raise ValueError(
                    f"cannot merge arenas over {a.n_switches} and {n} switches"
                )
        if len(arenas) == 1:
            return arenas[0]
        # later arenas win: keep the last occurrence of each pair key.
        winner: Dict[int, Tuple[int, int]] = {}
        for ai, a in enumerate(arenas):
            keys = a.pair_key
            for pi in range(len(keys)):
                winner[int(keys[pi])] = (ai, pi)
        ordered = sorted(winner.items())
        pair_key = np.fromiter(
            (k for k, _ in ordered), dtype=np.int64, count=len(ordered)
        )
        pair_off = np.zeros(len(ordered) + 1, dtype=np.int64)
        node_parts: List[np.ndarray] = []
        len_parts: List[np.ndarray] = []
        for i, (_, (ai, pi)) in enumerate(ordered):
            a = arenas[ai]
            p0, p1 = int(a.pair_off[pi]), int(a.pair_off[pi + 1])
            pair_off[i + 1] = pair_off[i] + (p1 - p0)
            n0, n1 = int(a.path_off[p0]), int(a.path_off[p1])
            node_parts.append(a.nodes[n0:n1])
            len_parts.append(np.diff(a.path_off[p0 : p1 + 1]))
        lens = (
            np.concatenate(len_parts)
            if len_parts else np.empty(0, dtype=np.int64)
        )
        path_off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=path_off[1:])
        nodes = (
            np.concatenate(node_parts).astype(np.int32, copy=False)
            if node_parts else np.empty(0, dtype=np.int32)
        )
        return cls(n, pair_key, pair_off, path_off, nodes, key=key)

    # ------------------------------------------------------------ queries
    def _validate(self) -> None:
        pk, po, fo, nd = (
            self.pair_key, self.pair_off, self.path_off, self.nodes
        )
        if po.ndim != 1 or pk.ndim != 1 or fo.ndim != 1 or nd.ndim != 1:
            raise ArenaFormatError("arena arrays must be one-dimensional")
        if len(po) != len(pk) + 1 or po[0] != 0 or fo[0] != 0:
            raise ArenaFormatError("arena CSR offsets are inconsistent")
        if int(po[-1]) != len(fo) - 1 or int(fo[-1]) != len(nd):
            raise ArenaFormatError("arena CSR offsets are inconsistent")
        if len(pk) and (
            (np.diff(pk) <= 0).any()
            or (np.diff(po) < 0).any()
            or (np.diff(fo) <= 0).any()
        ):
            raise ArenaFormatError("arena CSR offsets are inconsistent")

    def lookup(self, source: int, destination: int) -> int:
        """Pair index of ``(source, destination)``; -1 when not resident."""
        key = source * self.n_switches + destination
        i = int(np.searchsorted(self.pair_key, key))
        if i < len(self.pair_key) and int(self.pair_key[i]) == key:
            return i
        return -1

    def pathset(self, source: int, destination: int) -> Optional[PathSet]:
        """A lazy :class:`PathSet` view of one resident pair, else None.

        Node tuples are rebuilt on demand; bytes in the arena stay the
        authority.  Construction goes through ``_from_trusted`` — the
        arena only ever holds validated paths.
        """
        i = self.lookup(source, destination)
        if i < 0:
            return None
        p0, p1 = int(self.pair_off[i]), int(self.pair_off[i + 1])
        fo, nd = self.path_off, self.nodes
        paths = [
            Path._from_trusted(
                tuple(int(v) for v in nd[int(fo[p]) : int(fo[p + 1])])
            )
            for p in range(p0, p1)
        ]
        ps = object.__new__(PathSet)
        object.__setattr__(ps, "source", int(source))
        object.__setattr__(ps, "destination", int(destination))
        object.__setattr__(ps, "paths", tuple(paths))
        return ps

    def pairs(self) -> Iterator[Tuple[int, int]]:
        n = self.n_switches
        for k in self.pair_key:
            k = int(k)
            yield k // n, k % n

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership over flat ``src * n_switches + dst`` keys."""
        pk = self.pair_key
        if not len(pk):
            return np.zeros(len(keys), dtype=bool)
        idx = np.minimum(np.searchsorted(pk, keys), len(pk) - 1)
        return pk[idx] == keys

    def max_hops(self) -> int:
        """Longest path in the arena, in hops (floor 1, like the caches)."""
        if len(self.path_off) <= 1:
            return 1
        return max(1, int(np.diff(self.path_off).max()) - 1)

    @property
    def n_paths(self) -> int:
        return len(self.path_off) - 1

    @property
    def nbytes(self) -> int:
        return (
            self.pair_key.nbytes + self.pair_off.nbytes
            + self.path_off.nbytes + self.nodes.nbytes
        )

    def __len__(self) -> int:
        return len(self.pair_key)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return self.lookup(pair[0], pair[1]) >= 0

    # -------------------------------------------------------- persistence
    def save_npz(self, path) -> None:
        """Write a deterministic versioned ``.npz`` to ``path``.

        ``np.savez`` stamps zip members with the current time; this writer
        pins the timestamps and orders members, so the bytes are a pure
        function of the content.  Members are stored uncompressed so loads
        can memory-map them in place.
        """
        arrays = {
            "format": np.array(ARENA_FORMAT),
            "key": np.array(self.key),
            "n_switches": np.array(self.n_switches, dtype=np.int64),
            "pair_key": self.pair_key,
            "pair_off": self.pair_off,
            "path_off": self.path_off,
            "nodes": self.nodes,
        }
        with open(path, "wb") as raw:
            with zipfile.ZipFile(raw, "w", zipfile.ZIP_STORED) as zf:
                for name in sorted(arrays):
                    buf = io.BytesIO()
                    np.lib.format.write_array(
                        buf,
                        np.ascontiguousarray(arrays[name]),
                        allow_pickle=False,
                    )
                    info = zipfile.ZipInfo(
                        name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)
                    )
                    info.compress_type = zipfile.ZIP_STORED
                    info.external_attr = 0o644 << 16
                    zf.writestr(info, buf.getvalue())

    @classmethod
    def load_npz(cls, path, mmap: bool = True) -> "PathArena":
        """Load an arena, memory-mapping the array payloads when ``mmap``.

        ``np.load`` ignores ``mmap_mode`` for zip archives, so the members
        (written uncompressed by :meth:`save_npz`) are mapped manually: one
        mmap of the file, ``np.frombuffer`` views at each member's data
        offset.  Raises :class:`ArenaFormatError` on a foreign format tag
        or version (the store treats that as a miss) and any other
        exception on corruption (the store treats that as corrupt).
        """
        spans: Dict[str, Tuple[int, int]] = {}
        with open(path, "rb") as fh:
            with zipfile.ZipFile(fh) as zf:
                names = set(zf.namelist())
                expected = {f + ".npy" for f in _FIELDS} | {
                    "format.npy", "key.npy", "n_switches.npy"
                }
                if names != expected:
                    raise ArenaFormatError(
                        f"not a path arena: members {sorted(names)}"
                    )
                for zi in zf.infolist():
                    if zi.compress_type != zipfile.ZIP_STORED:
                        raise ArenaFormatError(
                            "arena members must be stored uncompressed"
                        )
                    fh.seek(zi.header_offset)
                    hdr = fh.read(30)
                    if len(hdr) != 30 or hdr[:4] != b"PK\x03\x04":
                        raise ValueError("bad local file header")
                    name_len = int.from_bytes(hdr[26:28], "little")
                    extra_len = int.from_bytes(hdr[28:30], "little")
                    spans[zi.filename] = (
                        zi.header_offset + 30 + name_len + extra_len,
                        zi.file_size,
                    )

            def read_member(name: str, want_mmap: bool):
                off, size = spans[name]
                fh.seek(off)
                version = np.lib.format.read_magic(fh)
                if version != (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(fh)
                    )
                else:
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(fh)
                    )
                if fortran or dtype.hasobject:
                    raise ArenaFormatError("unsupported member layout")
                data_off = fh.tell()
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                if data_off + count * dtype.itemsize > off + size:
                    raise ValueError("truncated arena member")
                if want_mmap and count:
                    mm = _mmap_of(path)
                    arr = np.frombuffer(
                        mm, dtype=dtype, count=count, offset=data_off
                    )
                else:
                    arr = np.fromfile(fh, dtype=dtype, count=count)
                    if len(arr) != count:
                        raise ValueError("truncated arena member")
                return arr.reshape(shape) if shape else arr[0]

            _mm_cache: List[Optional[np.memmap]] = [None]

            def _mmap_of(p):
                if _mm_cache[0] is None:
                    _mm_cache[0] = np.memmap(p, mode="r", dtype=np.uint8)
                return _mm_cache[0]

            fmt = str(np.ravel(read_member("format.npy", False))[0])
            if fmt != ARENA_FORMAT:
                raise ArenaFormatError(f"foreign arena format {fmt!r}")
            key = str(np.ravel(read_member("key.npy", False))[0])
            n_switches = int(np.ravel(read_member("n_switches.npy", False))[0])
            out: Dict[str, np.ndarray] = {}
            for field in _FIELDS:
                arr = read_member(field + ".npy", mmap)
                if arr.dtype != np.dtype(_DTYPES[field]):
                    raise ArenaFormatError(
                        f"arena member {field} has dtype {arr.dtype}"
                    )
                out[field] = arr
            arena = cls(
                n_switches, out["pair_key"], out["pair_off"],
                out["path_off"], out["nodes"], key=key,
            )
            arena._mmap = _mm_cache[0]
            return arena

    # ------------------------------------------------------ shared memory
    def to_shm(self):
        """Copy the arena into one shared-memory block.

        Returns ``(shm, descriptor)``: the parent must keep ``shm`` alive
        while workers run and ``close()``/``unlink()`` it afterwards; the
        descriptor is a tiny picklable dict for :meth:`from_shm`.
        """
        from multiprocessing import shared_memory

        fields = []
        offset = 0
        for name in _FIELDS:
            arr = getattr(self, name)
            offset = -(-offset // 64) * 64  # 64-byte align each array
            fields.append((name, arr.dtype.str, len(arr), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, dstr, count, off in fields:
            arr = getattr(self, name)
            if count:
                view = np.frombuffer(
                    shm.buf, dtype=np.dtype(dstr), count=count, offset=off
                )
                view[:] = arr
        descriptor = {
            "shm": shm.name,
            "n_switches": self.n_switches,
            "key": self.key,
            "fields": fields,
        }
        return shm, descriptor

    @classmethod
    def from_shm(cls, descriptor: dict) -> "PathArena":
        """Attach zero-copy views over a :meth:`to_shm` block.

        On POSIX the block is mapped straight off ``/dev/shm`` — the
        mapping then lives exactly as long as the views referencing it,
        with no close-ordering hazards; elsewhere it falls back to a
        :class:`~multiprocessing.shared_memory.SharedMemory` attach kept
        alive on the arena.
        """
        import os

        name = descriptor["shm"]
        shm_file = "/dev/shm/" + name.lstrip("/")
        holder = None
        if os.path.exists(shm_file):
            buf = np.memmap(shm_file, mode="r", dtype=np.uint8)
        else:  # pragma: no cover - non-POSIX fallback
            from multiprocessing import shared_memory

            holder = shared_memory.SharedMemory(name=name)
            buf = holder.buf
        arrays = {}
        for field, dstr, count, off in descriptor["fields"]:
            arrays[field] = np.frombuffer(
                buf, dtype=np.dtype(dstr), count=count, offset=off
            )
        arena = cls(
            descriptor["n_switches"],
            arrays["pair_key"], arrays["pair_off"],
            arrays["path_off"], arrays["nodes"],
            key=descriptor.get("key", ""),
        )
        arena._shm = holder  # keep a non-memmap attach alive with the views
        return arena
