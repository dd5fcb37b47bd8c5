"""Per-(src, dst)-pair flow telemetry for the flit-level simulator.

The link-state record (:mod:`repro.obs.linkstate`) attributes congestion
to *links*; this module resolves the complementary axis: *flows*.  For
every ordered (source host, destination host) pair of a run it keeps

- ``delivered`` — measured packets ejected for the pair;
- ``lat_sum`` / ``lat_max`` — the pair's total and worst measured
  latency in cycles (``lat_max`` is ``-1`` for pairs that delivered
  nothing);
- an **exact latency histogram** — one bin per integer cycle value, the
  bin count fixed per run from the warmup+measure budget
  (:func:`latency_bins`), so per-pair percentiles reconstructed from the
  histogram equal ``np.percentile`` over the raw latencies and merging
  shards never loses resolution.  The histogram is stored sparsely
  (``(run, pair, bin, count)`` coordinate rows sorted by key), because
  the dense ``runs x pairs x bins`` cube is almost entirely zeros.

The module functions (:func:`enable` / :func:`capture` / ... /
:func:`save_flowstats` / :func:`load_flowstats`) are the shared
capture-layer lifecycle of :class:`repro.obs.recorder.Slot`: NOOP when
off, task-order merge with run-id offsets
(:meth:`FlowstatsRecorder.merge`) so a parallel or batched-lane
``run_saturation_grid`` produces the byte-identical flow record of a
serial run, and ``.npz`` persistence next to the run manifest.

Engines do not tally anything themselves: they hand the recorder the raw
measured ``(pair id, latency)`` streams once per run
(:meth:`FlowstatsRecorder.record_run`), and the recorder computes the
canonical columns in one shared vectorized pass — cross-engine byte
identity by construction.  Pair ids are dense: ``src * n_hosts + dst``
over all ordered host pairs, with the endpoint tables (``pair_src`` /
``pair_dst``) carried in the snapshot so the analysis layer
(:mod:`repro.obs.fairness`) never needs the topology back.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.recorder import Slot

__all__ = [
    "FLOWSTATS_FORMAT",
    "PAIR_COLS",
    "HIST_COLS",
    "FlowstatsRecorder",
    "latency_bins",
    "pair_endpoints",
    "enable",
    "disable",
    "enabled",
    "active",
    "capture",
    "config",
    "snapshot",
    "merge_snapshot",
    "save_flowstats",
    "load_flowstats",
]

FLOWSTATS_FORMAT = "repro-flowstats-v1"

#: Dense per-pair columns, one ``(n_runs, n_pairs)`` int64 matrix each.
PAIR_COLS = ("delivered", "lat_sum", "lat_max")

#: Sparse histogram coordinate columns, sorted by (run, pair, bin).
HIST_COLS = ("run", "pair", "bin", "count")


def latency_bins(config) -> int:
    """The exact-histogram bin count implied by a run's cycle budget.

    A measured latency is recorded at ejection inside the measurement
    window, so it is strictly below ``total_cycles`` (warmup plus
    measurement).  One bin per integer cycle value up to that bound keeps
    percentiles exact and makes the bin count a pure function of the
    config — every engine tier derives the identical histogram shape.
    """
    return config.total_cycles


def pair_endpoints(n_hosts: int) -> Dict[str, np.ndarray]:
    """Endpoint tables for every ordered host pair, in pair-id order.

    Pair id ``src * n_hosts + dst`` over all ``n_hosts ** 2`` ordered
    pairs (self-pairs included — no traffic pattern targets them, so
    their rows stay zero and the id arithmetic stays trivial).
    """
    n = int(n_hosts)
    if n < 1:
        raise ConfigurationError(f"n_hosts must be >= 1, got {n_hosts}")
    hosts = np.arange(n, dtype=np.int64)
    return {
        "pair_src": np.repeat(hosts, n),
        "pair_dst": np.tile(hosts, n),
    }


class FlowstatsRecorder:
    """Columnar per-pair flow store fed once per simulator run.

    The pair count, bin count and host count are not constructor
    parameters: the recorder adopts them from the first run's metadata
    (every simulator passes ``n_hosts`` / ``n_pairs`` / ``n_bins`` to
    :meth:`begin_run`), so pool workers can be constructed from
    :func:`config` before any topology exists.
    """

    def __init__(self):
        self.n_hosts = 0  # adopted from the first run's metadata
        self.n_pairs = 0
        self.n_bins = 0
        self.runs: List[dict] = []
        # One (n_pairs,) int64 vector per run, per dense column.
        self._delivered: List[np.ndarray] = []
        self._lat_sum: List[np.ndarray] = []
        self._lat_max: List[np.ndarray] = []
        # Per-run sparse histogram rows, each sorted by (pair, bin).
        self._hist_pair: List[np.ndarray] = []
        self._hist_bin: List[np.ndarray] = []
        self._hist_count: List[np.ndarray] = []
        self._pair_src: Optional[np.ndarray] = None
        self._pair_dst: Optional[np.ndarray] = None

    # --------------------------------------------------------- recording
    def _adopt_shape(self, n_hosts: int, n_pairs: int, n_bins: int) -> None:
        n_hosts, n_pairs, n_bins = int(n_hosts), int(n_pairs), int(n_bins)
        if n_pairs < 1 or n_bins < 1 or n_hosts < 1:
            raise ConfigurationError(
                "flowstats run metadata needs positive n_hosts/n_pairs/"
                f"n_bins, got {n_hosts}/{n_pairs}/{n_bins}"
            )
        if self.n_pairs == 0:
            self.n_hosts = n_hosts
            self.n_pairs = n_pairs
            self.n_bins = n_bins
        elif (n_hosts, n_pairs, n_bins) != (
            self.n_hosts, self.n_pairs, self.n_bins
        ):
            raise ConfigurationError(
                f"flowstats recorder tracks {self.n_hosts} hosts / "
                f"{self.n_pairs} pairs / {self.n_bins} bins; a run with "
                f"{n_hosts}/{n_pairs}/{n_bins} cannot share it"
            )

    def begin_run(self, **meta) -> int:
        """Register one simulator run; returns its run id.

        ``meta`` must include ``n_hosts``, ``n_pairs`` and ``n_bins``;
        the first run fixes the recorder's shape and later runs must
        match it.
        """
        for key in ("n_hosts", "n_pairs", "n_bins"):
            if key not in meta:
                raise ConfigurationError(f"flowstats run metadata needs {key}")
        self._adopt_shape(meta["n_hosts"], meta["n_pairs"], meta["n_bins"])
        self.runs.append(dict(meta))
        empty = np.zeros(0, dtype=np.int64)
        self._delivered.append(np.zeros(self.n_pairs, dtype=np.int64))
        self._lat_sum.append(np.zeros(self.n_pairs, dtype=np.int64))
        self._lat_max.append(np.full(self.n_pairs, -1, dtype=np.int64))
        self._hist_pair.append(empty)
        self._hist_bin.append(empty)
        self._hist_count.append(empty)
        return len(self.runs) - 1

    def set_pair_endpoints(self, src, dst) -> None:
        """Record (or re-validate) the per-pair endpoint tables."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ConfigurationError(
                "pair endpoint tables must be equal-length 1-D"
            )
        if self._pair_src is None:
            self._pair_src = src.copy()
            self._pair_dst = dst.copy()
        elif not (
            np.array_equal(self._pair_src, src)
            and np.array_equal(self._pair_dst, dst)
        ):
            raise ConfigurationError(
                "flowstats recorder already holds different pair endpoints "
                "(one recorder tracks one host count)"
            )

    def record_run(self, run: int, pairs, latencies) -> None:
        """Fold one run's raw measured ``(pair, latency)`` streams in.

        ``pairs[i]`` is the dense pair id of the ``i``-th measured
        delivery and ``latencies[i]`` its latency in cycles.  The tally
        (delivered counts, latency sums/maxima, exact histogram) happens
        here in one shared vectorized pass, so every engine tier that
        hands over identical streams produces identical columns.
        Callable more than once per run; contributions accumulate.
        """
        if not 0 <= run < len(self.runs):
            raise ConfigurationError(f"record_run for unknown run {run}")
        p = np.asarray(pairs, dtype=np.int64)
        lat = np.asarray(latencies, dtype=np.int64)
        if p.shape != lat.shape or p.ndim != 1:
            raise ConfigurationError(
                "pairs and latencies must be equal-length 1-D streams"
            )
        if not p.size:
            return
        if p.min() < 0 or p.max() >= self.n_pairs:
            raise ConfigurationError(
                f"pair ids must lie in [0, {self.n_pairs}), got "
                f"[{int(p.min())}, {int(p.max())}]"
            )
        if lat.min() < 0 or lat.max() >= self.n_bins:
            raise ConfigurationError(
                f"latencies must lie in [0, {self.n_bins}) cycles, got "
                f"[{int(lat.min())}, {int(lat.max())}]"
            )
        self._delivered[run] += np.bincount(p, minlength=self.n_pairs)
        np.add.at(self._lat_sum[run], p, lat)
        np.maximum.at(self._lat_max[run], p, lat)
        # Exact histogram: merge the new (pair, bin) keys with the run's
        # existing sparse rows, keeping the canonical (pair, bin) order.
        key = p * self.n_bins + lat
        cnt = np.ones(key.size, dtype=np.int64)
        if self._hist_pair[run].size:
            key = np.concatenate(
                [self._hist_pair[run] * self.n_bins + self._hist_bin[run], key]
            )
            cnt = np.concatenate([self._hist_count[run], cnt])
        uniq, inverse = np.unique(key, return_inverse=True)
        counts = np.bincount(inverse, weights=cnt).astype(np.int64)
        self._hist_pair[run] = uniq // self.n_bins
        self._hist_bin[run] = uniq % self.n_bins
        self._hist_count[run] = counts

    # --------------------------------------------------- snapshot / merge
    def snapshot(self) -> dict:
        """Everything recorded so far as a plain dict of numpy arrays.

        Per-run storage is deliberately rebuilt into contiguous arrays:
        a serial recorder and merged fresh per-worker recorders snapshot
        identically.
        """
        n = len(self.runs)
        snap = {
            "format": FLOWSTATS_FORMAT,
            "n_hosts": self.n_hosts,
            "n_pairs": self.n_pairs,
            "n_bins": self.n_bins,
            "n_runs": n,
            "runs": [dict(r) for r in self.runs],
        }
        empty = np.zeros(0, dtype=np.int64)
        snap["pair_src"] = (
            self._pair_src.copy() if self._pair_src is not None else empty
        )
        snap["pair_dst"] = (
            self._pair_dst.copy() if self._pair_dst is not None else empty
        )
        for name, cols in (
            ("delivered", self._delivered),
            ("lat_sum", self._lat_sum),
            ("lat_max", self._lat_max),
        ):
            snap[f"fs_{name}"] = (
                np.stack(cols)
                if n
                else np.zeros((0, self.n_pairs), dtype=np.int64)
            )
        snap["fs_run"] = (
            np.concatenate(
                [
                    np.full(h.size, r, dtype=np.int64)
                    for r, h in enumerate(self._hist_pair)
                ]
            )
            if n
            else empty
        )
        for name, cols in (
            ("pair", self._hist_pair),
            ("bin", self._hist_bin),
            ("count", self._hist_count),
        ):
            snap[f"fs_{name}"] = np.concatenate(cols) if n else empty
        return snap

    def merge(self, snap: Mapping) -> None:
        """Fold a worker snapshot into this recorder.

        Run ids are offset past this recorder's runs, so merging
        per-cell snapshots in task order reproduces exactly the flow
        record a serial run under one recorder would have produced.
        """
        if snap.get("format") != FLOWSTATS_FORMAT:
            raise ConfigurationError(
                f"cannot merge flowstats snapshot of format "
                f"{snap.get('format')!r}"
            )
        n = int(snap["n_runs"])
        if int(snap.get("n_pairs", 0)):
            self._adopt_shape(
                snap["n_hosts"], snap["n_pairs"], snap["n_bins"]
            )
        src = np.asarray(snap.get("pair_src", ()), dtype=np.int64)
        if src.size:
            self.set_pair_endpoints(src, snap["pair_dst"])
        self.runs.extend(dict(r) for r in snap["runs"])
        if not n:
            return
        for name, cols in (
            ("delivered", self._delivered),
            ("lat_sum", self._lat_sum),
            ("lat_max", self._lat_max),
        ):
            mat = np.asarray(snap[f"fs_{name}"], dtype=np.int64)
            for r in range(n):
                cols.append(mat[r].copy())
        hist_run = np.asarray(snap["fs_run"], dtype=np.int64)
        for name, cols in (
            ("pair", self._hist_pair),
            ("bin", self._hist_bin),
            ("count", self._hist_count),
        ):
            vals = np.asarray(snap[f"fs_{name}"], dtype=np.int64)
            for r in range(n):
                cols.append(vals[hist_run == r].copy())


# ----------------------------------------------- module state / persistence
#: The process's active recorder (``None`` when flow stats are off) behind the
#: shared capture-layer lifecycle of :class:`~repro.obs.recorder.Slot`.
#: Simulators read :func:`active` once at construction.
_slot = Slot(FlowstatsRecorder, FLOWSTATS_FORMAT, ())
enable = _slot.enable
disable = _slot.disable
enabled = _slot.enabled
active = _slot.active
config = _slot.config
capture = _slot.capture
snapshot = _slot.snapshot
merge_snapshot = _slot.merge_snapshot
save_flowstats = _slot.save
load_flowstats = _slot.load
