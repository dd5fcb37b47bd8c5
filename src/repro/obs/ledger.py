"""Persistent cross-run index: the append-only run ledger.

PR 2's manifests describe one run and PR 3's ``compare-runs`` diffs two
of them; this module keeps the *fleet* of runs on record.  A ledger is a
JSONL file of compact, content-hash-deduplicated entries — one line per
run — distilled from run manifests (:func:`manifest_entry`) or from
pytest-benchmark exports (:func:`bench_entries`).  The experiment runner
appends an entry for every manifest it writes, and
``benchmarks/compare.py --ledger`` feeds benchmark rows in, so the
ledger accumulates the perf trajectory that used to live in hand-curated
``BENCH_*.json`` files alone.

Design constraints, in order:

- **append-only and atomic** — :func:`append_entries` serialises each
  entry to a single line and issues one ``O_APPEND`` ``write`` for the
  batch under an exclusive ``flock``, so concurrent writers (parallel
  grid workers, simultaneous CI jobs) can never tear or interleave
  lines;
- **content-hash-deduplicated** — an entry's ``id`` is a SHA-256 over
  its canonical JSON (everything but the ``id`` itself), appends skip
  ids already present, and :func:`read_ledger` drops duplicates on
  load, so re-ingesting the same manifest or benchmark export is a
  no-op;
- **tolerant of damage** — a torn or hand-mangled line is skipped (and
  counted) on read instead of poisoning the whole index.

Entries are flat on purpose: per-stage timing totals, the
``netsim.cycles_per_sec/<engine>`` gauges, and the counter snapshot land
in one ``metrics`` map keyed ``timing/...`` / ``gauge/...`` /
``counter/...``, which is the shape :mod:`repro.obs.trend` analyses and
:func:`repro.obs.compare.compare_manifests` diffs.
Environment provenance (host, CPU count, Python/numpy versions) rides
along so trend baselines can be scoped per host.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.errors import ComparisonError

__all__ = [
    "LEDGER_FORMAT",
    "LEDGER_SCHEMA_VERSION",
    "entry_id",
    "engines_of",
    "manifest_entry",
    "bench_entries",
    "append_entries",
    "read_ledger",
    "load_entries",
    "default_ledger_path",
    "series_key",
]

LEDGER_FORMAT = "repro-ledger-v1"

#: Bump when entry fields change shape; readers skip entries from other
#: schema versions rather than mis-trending them.
LEDGER_SCHEMA_VERSION = 1


def entry_id(entry: Mapping) -> str:
    """Content hash of an entry: SHA-256 over everything but ``id``.

    Canonical JSON (sorted keys, tight separators) makes the hash
    independent of insertion order, so the same run distilled twice —
    from the same manifest file or a re-read benchmark export — dedups.
    """
    doc = {k: v for k, v in entry.items() if k != "id"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _finish(entry: dict) -> dict:
    entry["metrics"] = {k: entry["metrics"][k] for k in sorted(entry["metrics"])}
    entry["id"] = entry_id(entry)
    return entry


#: Counter prefix that stamps which simulator engine(s) a run used.
_ENGINE_PREFIX = "netsim.engine_runs/"


def engines_of(manifest: Mapping) -> frozenset:
    """The simulator engines a manifest's run used (empty if none)."""
    counters = manifest.get("metrics", {}).get("counters", {})
    return frozenset(
        name[len(_ENGINE_PREFIX):]
        for name, count in counters.items()
        if name.startswith(_ENGINE_PREFIX) and count
    )


def manifest_entry(manifest: Mapping) -> dict:
    """Distill one run manifest into a ledger entry.

    Keeps what cross-run trending needs — stage-timing totals, the
    ``netsim.cycles_per_sec/*`` gauges, the counter snapshot, engine
    tiers, topology hash, and environment provenance — and drops the
    bulky per-link arrays and histograms.
    """
    metrics: dict = {}
    for name, doc in (manifest.get("stage_timings") or {}).items():
        metrics[f"timing/{name}"] = float(doc.get("total", 0.0))
    snap = manifest.get("metrics") or {}
    for name, value in (snap.get("gauges") or {}).items():
        metrics[f"gauge/{name}"] = float(value)
    for name, value in (snap.get("counters") or {}).items():
        metrics[f"counter/{name}"] = float(value)
    config = manifest.get("config") or {}
    entry = {
        "format": LEDGER_FORMAT,
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "manifest",
        "experiment": str(manifest.get("experiment", "")),
        "scale": str(manifest.get("scale", "")),
        "seed": manifest.get("seed"),
        "engines": sorted(engines_of(manifest)),
        "batch_lanes": config.get("batch_lanes"),
        "topology_hash": (manifest.get("info") or {}).get("topology_hash"),
        "host": manifest.get("host"),
        "cpu_count": manifest.get("cpu_count"),
        "python": manifest.get("python"),
        "numpy": manifest.get("numpy"),
        "git_commit": manifest.get("git_commit"),
        "created_at": manifest.get("created_at"),
        "wall_time_s": manifest.get("wall_time_s"),
        "metrics": metrics,
    }
    return _finish(entry)


def bench_entries(export: Mapping) -> List[dict]:
    """Distill a pytest-benchmark export into one entry per benchmark row.

    Each row becomes a ``kind="bench"`` entry whose ``experiment`` is the
    benchmark name and whose metric map carries ``timing/mean`` and
    ``timing/min`` in seconds — the quantities ``benchmarks/compare.py``
    gates on, now trendable across every export ever ingested.

    Rows that stamp ``benchmark.extra_info["engines"]`` (the simulator
    and saturation-grid benchmarks) carry that tier into the entry, so
    ``runs gate`` scopes them exactly like manifest entries — a batched
    row is never gated against a per-cell baseline series.
    """
    machine = export.get("machine_info") or {}
    commit = (export.get("commit_info") or {}).get("id")
    created = export.get("datetime")
    entries = []
    for bench in export.get("benchmarks") or ():
        stats = bench.get("stats") or {}
        extra = bench.get("extra_info") or {}
        engines = extra.get("engines")
        if not isinstance(engines, (list, tuple)):
            engines = ()
        entry = {
            "format": LEDGER_FORMAT,
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "bench",
            "experiment": str(bench.get("name", "")),
            "scale": "bench",
            "seed": None,
            "engines": sorted(str(e) for e in engines),
            "batch_lanes": None,
            "topology_hash": None,
            "host": machine.get("node"),
            "cpu_count": (machine.get("cpu") or {}).get("count"),
            "python": machine.get("python_version"),
            "numpy": None,
            "git_commit": commit,
            "created_at": created,
            "wall_time_s": None,
            "metrics": {
                "timing/mean": float(stats.get("mean", 0.0)),
                "timing/min": float(stats.get("min", 0.0)),
            },
        }
        entries.append(_finish(entry))
    return entries


def default_ledger_path(telemetry_dir=None) -> Path:
    """Where the runner appends entries: ``$REPRO_RUN_LEDGER`` wins,
    else ``<telemetry_dir>/run-ledger.jsonl``, else
    ``~/.cache/repro/run-ledger.jsonl``."""
    env = os.environ.get("REPRO_RUN_LEDGER")
    if env:
        return Path(env)
    if telemetry_dir is not None:
        return Path(telemetry_dir) / "run-ledger.jsonl"
    return Path.home() / ".cache" / "repro" / "run-ledger.jsonl"


def append_entries(
    path, entries: Iterable[Mapping], *, dedup: bool = True
) -> int:
    """Atomically append ``entries`` to the ledger at ``path``.

    Every entry is serialised to exactly one line and the whole batch is
    written with a single ``write`` on an ``O_APPEND`` descriptor, held
    under an exclusive ``flock`` — concurrent appenders (parallel grid
    workers, simultaneous CI jobs) serialise cleanly and can never
    interleave bytes inside a line.  With ``dedup`` (the default) the
    ids already on disk are read under the same lock and matching
    entries are skipped, so appending the same run twice is a no-op.
    Returns the number of entries actually written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    batch = [dict(e) for e in entries]
    for entry in batch:
        entry.setdefault("id", entry_id(entry))
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            if dedup:
                existing, _ = read_ledger(path)
                seen = {e["id"] for e in existing}
            else:
                seen = set()
            # A torn tail (a writer died mid-line) must not swallow the
            # next entry: if the file doesn't end in a newline, start on
            # a fresh line.  Checked under the lock, so it cannot race.
            size = os.fstat(fd).st_size
            torn_tail = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
            lines = []
            for entry in batch:
                if entry["id"] in seen:
                    continue
                seen.add(entry["id"])
                lines.append(
                    json.dumps(entry, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
            if lines:
                blob = ("\n" if torn_tail else "") + "".join(lines)
                os.write(fd, blob.encode("utf-8"))
            return len(lines)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def read_ledger(path) -> Tuple[List[dict], int]:
    """Read one ledger file; returns ``(entries, n_skipped)``.

    Lines that fail to parse, lack the ledger format stamp, come from a
    different schema version, or repeat an already-seen id are skipped
    and counted — a torn tail or a hand-edit never poisons the index.
    A missing file reads as an empty ledger.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return [], 0
    except OSError as exc:
        raise ComparisonError(f"cannot read ledger {path}: {exc}") from exc
    entries: List[dict] = []
    seen = set()
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if (
            not isinstance(doc, dict)
            or doc.get("format") != LEDGER_FORMAT
            or doc.get("schema_version") != LEDGER_SCHEMA_VERSION
            or "id" not in doc
        ):
            skipped += 1
            continue
        if doc["id"] in seen:
            skipped += 1
            continue
        seen.add(doc["id"])
        entries.append(doc)
    return entries, skipped


def load_entries(paths: Sequence) -> List[dict]:
    """Merge one or more ledger files into a time-ordered entry list.

    Entries dedup by id across files (the checked-in seed ledger plus a
    fresh run ledger compose) and sort by ``created_at`` then id, so
    trend windows see runs in the order they happened regardless of
    which file recorded them.
    """
    merged: List[dict] = []
    seen = set()
    for path in paths:
        entries, _ = read_ledger(path)
        for entry in entries:
            if entry["id"] in seen:
                continue
            seen.add(entry["id"])
            merged.append(entry)
    merged.sort(key=lambda e: (str(e.get("created_at") or ""), e["id"]))
    return merged


def series_key(entry: Mapping) -> Tuple[str, str, str, str, str]:
    """The trend-series identity of an entry.

    Runs trend together only when they measured the same thing on the
    same machine with the same simulator cores: ``(kind, experiment,
    scale, host, tiers)``.  Host is part of the key so noise floors and
    baselines are scoped per machine; ``tiers`` joins the entry's engine
    names with ``+`` (``""`` when untagged, so untagged entries form a
    tier of their own) so a fast-engine run never gates against a
    batched or reference baseline.
    """
    return (
        str(entry.get("kind", "")),
        str(entry.get("experiment", "")),
        str(entry.get("scale", "")),
        str(entry.get("host") or ""),
        "+".join(str(e) for e in entry.get("engines") or ()),
    )
