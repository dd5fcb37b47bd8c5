"""The flat CSR path arena: lossless views, robust persistence, zero-copy.

The arena is the one storage format for path tables, so it carries the
whole persistence contract:

- a PathSet materialised from the arena is indistinguishable from the one
  the cache computed — nodes, order, and RNG-dependent choices included;
- the ``.npz`` persistence is byte-deterministic, memory-mapped on load,
  and corruption-safe: truncation and garbage count ``core.store.corrupt``
  and read as a miss, while foreign format tags, version bumps and key
  mismatches read as a *silent* miss (a valid file, just not ours);
- concurrent/partial saves merge instead of clobbering;
- the store key separates every input of a table and is pinned, so
  existing ``arena-<key>.npz`` files stay warm hits;
- the shared-memory descriptor round-trips the arena zero-copy.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.core.arena import ARENA_FORMAT, ArenaFormatError, PathArena
from repro.core.store import ArenaStore
from repro.obs import log, metrics

K = 4


@pytest.fixture(scope="module")
def topo():
    return Jellyfish(18, 10, 6, seed=3)


def _pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    out = set()
    while len(out) < count:
        s, d = (int(x) for x in rng.integers(0, n, 2))
        if s != d:
            out.add((s, d))
    return sorted(out)


def _warm_cache(topo, scheme="rksp", seed=7, count=25):
    cache = PathCache(topo, scheme, k=K, seed=seed)
    cache.precompute(_pairs(topo.n_switches, count, seed=seed + 1))
    return cache


def _tables(cache):
    return {
        pair: [tuple(p) for p in ps]
        for pair, ps in sorted(cache.export_state().items())
    }


# --------------------------------------------------------------------------
# Lossless views
# --------------------------------------------------------------------------

class TestArenaViews:
    def test_pathsets_round_trip_losslessly(self, topo):
        cache = _warm_cache(topo)
        arena = PathArena.from_cache(cache)
        assert len(arena) == len(cache)
        for (s, d), ps in cache.export_state().items():
            view = arena.pathset(s, d)
            assert view.source == s and view.destination == d
            assert [p.nodes for p in view] == [p.nodes for p in ps]

    def test_absent_pair_is_none_and_lookup_negative(self, topo):
        arena = PathArena.from_cache(_warm_cache(topo))
        resident = dict.fromkeys(arena.pairs())
        absent = next(
            (s, d)
            for s in range(topo.n_switches)
            for d in range(topo.n_switches)
            if s != d and (s, d) not in resident
        )
        assert arena.pathset(*absent) is None
        assert arena.lookup(*absent) == -1
        assert absent not in arena

    def test_contains_keys_vectorized(self, topo):
        cache = _warm_cache(topo)
        arena = PathArena.from_cache(cache)
        n = topo.n_switches
        keys = np.arange(n * n, dtype=np.int64)
        got = arena.contains_keys(keys)
        want = np.array(
            [(k // n, k % n) in cache for k in range(n * n)], dtype=bool
        )
        assert (got == want).all()
        assert not PathArena.empty(n).contains_keys(keys).any()

    def test_max_hops_matches_cache(self, topo):
        cache = _warm_cache(topo)
        arena = PathArena.from_cache(cache)
        want = max(
            len(p.nodes) - 1 for ps in cache.export_state().values() for p in ps
        )
        assert arena.max_hops() == max(1, want)
        assert PathArena.empty(topo.n_switches).max_hops() == 1

    def test_merge_later_wins(self, topo):
        a = PathCache(topo, "ksp", k=K, seed=0)
        a.precompute([(0, 1), (0, 2)])
        b = PathCache(topo, "ksp", k=1, seed=0)  # different table for (0, 2)
        b.precompute([(0, 2), (0, 3)])
        merged = PathArena.merge(
            [PathArena.from_cache(a), PathArena.from_cache(b)]
        )
        assert sorted(merged.pairs()) == [(0, 1), (0, 2), (0, 3)]
        assert len(merged.pathset(0, 2)) == len(b.get(0, 2))  # b won
        assert [p.nodes for p in merged.pathset(0, 1)] == [
            p.nodes for p in a.get(0, 1)
        ]

    def test_validation_rejects_inconsistent_offsets(self):
        ok = PathArena(
            4,
            np.array([1], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([0, 2], dtype=np.int64),
            np.array([0, 1], dtype=np.int32),
        )
        assert len(ok) == 1
        with pytest.raises(ArenaFormatError):
            PathArena(
                4,
                np.array([1], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),  # claims 2 paths, has 1
                np.array([0, 2], dtype=np.int64),
                np.array([0, 1], dtype=np.int32),
            )


# --------------------------------------------------------------------------
# .npz persistence
# --------------------------------------------------------------------------

class TestArenaNpz:
    def test_save_is_byte_deterministic(self, topo, tmp_path):
        arena = PathArena.from_cache(_warm_cache(topo), key="k1")
        arena.save_npz(tmp_path / "a.npz")
        arena.save_npz(tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (
            tmp_path / "b.npz"
        ).read_bytes()

    def test_load_round_trips_and_memory_maps(self, topo, tmp_path):
        cache = _warm_cache(topo)
        arena = PathArena.from_cache(cache, key="k1")
        target = tmp_path / "a.npz"
        arena.save_npz(target)
        loaded = PathArena.load_npz(target)
        assert loaded.key == "k1"
        assert loaded.n_switches == arena.n_switches
        for name in ("pair_key", "pair_off", "path_off", "nodes"):
            got, want = getattr(loaded, name), getattr(arena, name)
            assert got.dtype == want.dtype and (got == want).all()
        # The payload views sit on one mmap of the file, not on copies.
        assert loaded._mmap is not None
        assert loaded.nodes.base is not None
        for (s, d), ps in cache.export_state().items():
            assert [p.nodes for p in loaded.pathset(s, d)] == [
                p.nodes for p in ps
            ]


def _store_events(events):
    return [e["event"] for e in events]


class TestArenaStore:
    def test_warm_save_then_cold_load_computes_nothing(self, topo, tmp_path):
        store = ArenaStore(tmp_path)
        warm = _warm_cache(topo)
        with metrics.capture() as reg:
            store.save(warm)
        assert store.file_for(warm).exists()
        snap = reg.snapshot()
        assert snap["gauges"]["core.arena_bytes"] > 0
        assert snap["gauges"]["core.pairs_resident"] == len(warm)

        cold = PathCache(topo, "rksp", k=K, seed=7)
        with metrics.capture() as reg:
            assert store.load(cold) == len(warm)
        assert reg.snapshot()["counters"]["core.store.load_hit"] == 1
        assert _tables(cold) == _tables(warm)
        assert cold.misses == 0  # every get above was an arena hit

    def test_export_bytes_identical_between_arena_and_dict(
        self, topo, tmp_path
    ):
        # An arena-backed cache must persist byte-for-byte like the
        # dict-backed cache it came from.
        store = ArenaStore(tmp_path)
        warm = _warm_cache(topo)
        store.save(warm)
        cold = PathCache(topo, "rksp", k=K, seed=7)
        store.load(cold)
        assert cold.arena is not None and warm.arena is None

        store_a, store_b = ArenaStore(tmp_path / "a"), ArenaStore(tmp_path / "b")
        store_a.save(warm)
        store_b.save(cold)
        assert store_a.file_for(warm).read_bytes() == store_b.file_for(
            cold
        ).read_bytes()

    def test_truncation_and_garbage_read_as_corrupt_miss(self, topo, tmp_path):
        store = ArenaStore(tmp_path)
        cache = _warm_cache(topo, count=5)
        store.save(cache)
        target = store.file_for(cache)
        good = target.read_bytes()

        events = []
        log.add_handler(events.append)
        try:
            with metrics.capture() as reg:
                for payload in [good[: len(good) // 2], b"not a zip at all"]:
                    target.write_bytes(payload)
                    fresh = PathCache(topo, "rksp", k=K, seed=7)
                    assert store.load(fresh) == 0
                    assert len(fresh) == 0
        finally:
            log.remove_handler(events.append)
        assert reg.snapshot()["counters"]["core.store.corrupt"] == 2
        corrupt = [
            e for e in events if e["event"] == "path_store.corrupt_file"
        ]
        assert len(corrupt) == 2
        assert all(e["path"] == str(target) for e in corrupt)

    def test_foreign_tag_version_and_key_mismatch_are_silent_misses(
        self, topo, tmp_path
    ):
        store = ArenaStore(tmp_path)
        cache = _warm_cache(topo, count=5)
        store.save(cache)
        target = store.file_for(cache)

        def rewrite_format(tag):
            arena = PathArena.load_npz(target, mmap=False)
            import repro.core.arena as arena_mod

            orig = arena_mod.ARENA_FORMAT
            arena_mod.ARENA_FORMAT = tag
            try:
                arena.save_npz(target)
            finally:
                arena_mod.ARENA_FORMAT = orig

        # A future format version must read as a miss, never a crash.
        rewrite_format("repro-patharena-v2")
        with metrics.capture() as reg:
            fresh = PathCache(topo, "rksp", k=K, seed=7)
            assert store.load(fresh) == 0
        snap = reg.snapshot()["counters"]
        assert snap.get("core.store.corrupt", 0) == 0
        assert snap["core.store.load_miss"] == 1

        # A valid arena under the wrong key (renamed file).
        other = PathCache(topo, "rksp", k=K, seed=8)
        PathArena.from_cache(cache, key=store.cache_key(cache)).save_npz(
            store.file_for(other)
        )
        assert store.load(other) == 0

        # A plain npz that is not an arena at all: same silent miss.
        np.savez(target, something=np.arange(3))
        fresh = PathCache(topo, "rksp", k=K, seed=7)
        assert store.load(fresh) == 0

    def test_compressed_members_are_rejected(self, topo, tmp_path):
        # save_npz stores members uncompressed so loads can mmap; a
        # deflated archive (e.g. hand-rolled) must not sneak past that.
        store = ArenaStore(tmp_path)
        cache = _warm_cache(topo, count=3)
        store.save(cache)
        target = store.file_for(cache)
        deflated = tmp_path / "deflated.npz"
        with zipfile.ZipFile(target) as src:
            with zipfile.ZipFile(
                deflated, "w", zipfile.ZIP_DEFLATED
            ) as dst:
                for name in src.namelist():
                    dst.writestr(name, src.read(name))
        deflated.replace(target)
        fresh = PathCache(topo, "rksp", k=K, seed=7)
        assert store.load(fresh) == 0

    def test_partial_saves_merge(self, topo, tmp_path):
        store = ArenaStore(tmp_path)
        a = PathCache(topo, "ksp", k=K, seed=0)
        a.precompute([(0, 1)])
        store.save(a)
        b = PathCache(topo, "ksp", k=K, seed=0)
        b.precompute([(2, 3)])
        store.save(b)

        merged = PathCache(topo, "ksp", k=K, seed=0)
        assert store.load(merged) == 2
        assert (0, 1) in merged and (2, 3) in merged

    def test_store_key_separates_topology_scheme_k_and_seed(
        self, topo, tmp_path
    ):
        store = ArenaStore(tmp_path)
        base = PathCache(topo, "rksp", k=8, seed=0)
        other_topo = Jellyfish(36, 24, 16, seed=2)
        variants = [
            PathCache(topo, "ksp", k=8, seed=0),
            PathCache(topo, "rksp", k=4, seed=0),
            PathCache(topo, "rksp", k=8, seed=1),
            PathCache(other_topo, "rksp", k=8, seed=0),
        ]
        keys = {store.cache_key(c) for c in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_cache_key_is_pinned(self, tmp_path):
        # Keys name the files on disk: a change to the hashed document
        # would turn every persisted arena into a miss.
        store = ArenaStore(tmp_path)
        topo = Jellyfish(8, 8, 5, seed=3)
        assert store.cache_key(PathCache(topo, "redksp", k=3, seed=0)) == (
            "533c53624df4e868eed7980ab30a704640bd42ce6476c4068396872f7a43ba08"
        )
        assert store.cache_key(PathCache(topo, "ksp", k=8, seed=1)) == (
            "332a9df52b39d8bd70338a4878fe1a7e2db5b70377bb4e45e7fd94f8e33addfe"
        )

    def test_warm_pipeline_uses_arena_store(self, topo, tmp_path):
        store = ArenaStore(tmp_path)
        pairs = _pairs(topo.n_switches, 10, seed=11)
        first = PathCache(topo, "redksp", k=K, seed=2)
        assert first.warm(pairs, store=store) == len(pairs)
        second = PathCache(topo, "redksp", k=K, seed=2)
        assert second.warm(pairs, store=store) == 0
        assert _tables(second) == _tables(first)


# --------------------------------------------------------------------------
# Shared memory
# --------------------------------------------------------------------------

class TestArenaShm:
    def test_shm_descriptor_round_trips(self, topo):
        import pickle

        cache = _warm_cache(topo)
        arena = PathArena.from_cache(cache, key="k9")
        shm, descriptor = arena.to_shm()
        try:
            # The descriptor is what crosses the process boundary: it must
            # be tiny and free of any pickled path objects.
            blob = pickle.dumps(descriptor)
            assert len(blob) < 1024
            assert b"PathSet" not in blob
            attached = PathArena.from_shm(descriptor)
            assert attached.key == "k9"
            for (s, d), ps in cache.export_state().items():
                assert [p.nodes for p in attached.pathset(s, d)] == [
                    p.nodes for p in ps
                ]
            del attached
        finally:
            shm.close()
            shm.unlink()
