"""Dense per-window link-state telemetry for the flit-level simulator.

The windowed time series (:mod:`repro.obs.timeseries`) keeps only the
``top_links`` hottest links per window — enough to spot *that* a link ran
hot, not enough to see congestion *spread*.  This module records the full
spatial picture: for every directed link of the topology (switch links,
then per-host injection and ejection links, in
:class:`~repro.topology.jellyfish.Jellyfish` link-id order) and every
window, three dense int64 matrices of shape ``(windows, n_links)``:

- ``forwarded`` — flits that traversed the link in the window (switch
  links at the allocation grant, injection links at source launch,
  ejection links at the eject grant);
- ``credit_stalls`` — head-of-line requests blocked on the link in the
  window, charged to the link the packet *wanted* (injection links when
  the source VC-0 buffer was full; ejection links never stall);
- ``peak_occupancy`` — the maximum downstream VC occupancy the link
  reached during the window (carried over: a window opens at the
  occupancy the last one closed at).

The module functions (:func:`enable` / :func:`capture` / ... /
:func:`save_linkstate` / :func:`load_linkstate`) are the shared
capture-layer lifecycle of :class:`repro.obs.recorder.Slot`: NOOP when
off, task-order merge with run-id offsets
(:meth:`LinkstateRecorder.merge`) so a parallel or batched-lane
``run_saturation_grid`` produces the byte-identical link state of a
serial run, and ``.npz`` persistence next to the run manifest.

The snapshot also carries the link endpoint tables (``link_src`` /
``link_dst``: switch ids, hosts encoded as ``-1 - host``), so the
forensics layer (:mod:`repro.obs.forensics`) can walk stall propagation
upstream through the topology without re-loading it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.recorder import Slot

__all__ = [
    "LINKSTATE_FORMAT",
    "ROW_COLS",
    "MATRIX_COLS",
    "LinkstateRecorder",
    "link_endpoints",
    "enable",
    "disable",
    "enabled",
    "active",
    "capture",
    "config",
    "snapshot",
    "merge_snapshot",
    "save_linkstate",
    "load_linkstate",
]

LINKSTATE_FORMAT = "repro-linkstate-v1"

#: Scalar per-window columns (all int64), one row per (run, window).
ROW_COLS = ("run", "index", "start", "cycles")

#: Dense per-link matrices, one row per (run, window), one column per link.
MATRIX_COLS = ("forwarded", "credit_stalls", "peak_occupancy")


def link_endpoints(topology) -> Dict[str, np.ndarray]:
    """Endpoint tables for every directed link of ``topology``.

    Returns ``{"link_src": ..., "link_dst": ...}`` int64 arrays of length
    ``n_links`` in link-id order.  Switch endpoints are switch ids; host
    endpoints (injection sources, ejection destinations) are encoded as
    ``-1 - host`` so the two id spaces cannot collide.
    """
    n = topology.n_links
    src = np.empty(n, dtype=np.int64)
    dst = np.empty(n, dtype=np.int64)
    for lid, (u, v) in enumerate(topology.switch_links()):
        src[lid] = u
        dst[lid] = v
    for h in range(topology.n_hosts):
        sw = topology.switch_of_host(h)
        src[topology.injection_link_base + h] = -1 - h
        dst[topology.injection_link_base + h] = sw
        src[topology.ejection_link_base + h] = sw
        dst[topology.ejection_link_base + h] = -1 - h
    return {"link_src": src, "link_dst": dst}


class LinkstateRecorder:
    """Columnar dense per-link store fed by the simulator at window edges.

    Parameters
    ----------
    window:
        Window width in cycles.  The simulator flushes a row whenever the
        absolute cycle count crosses a multiple of ``window`` (plus one
        final partial row at the end of a run).
    capacity:
        Initially preallocated rows; buffers double when exceeded.

    The number of links is not a constructor parameter: the recorder
    adopts it from the first run's ``n_links`` metadata (every simulator
    passes it to :meth:`begin_run`), so pool workers can be constructed
    from :func:`config` before any topology exists.
    """

    def __init__(self, window: int = 100, capacity: int = 256):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.window = int(window)
        self.n_links = 0  # adopted from the first run's metadata
        self.runs: List[dict] = []
        self.n_windows = 0
        self._cap = int(capacity)
        self._col: Dict[str, np.ndarray] = {
            c: np.zeros(self._cap, dtype=np.int64) for c in ROW_COLS
        }
        self._mat: Optional[Dict[str, np.ndarray]] = None
        self._link_src: Optional[np.ndarray] = None
        self._link_dst: Optional[np.ndarray] = None
        self._next_index = 0  # window index within the current run

    # --------------------------------------------------------- recording
    def _adopt_links(self, n_links: int) -> None:
        n_links = int(n_links)
        if n_links < 1:
            raise ConfigurationError(f"n_links must be >= 1, got {n_links}")
        if self.n_links == 0:
            self.n_links = n_links
            self._mat = {
                c: np.zeros((self._cap, n_links), dtype=np.int64)
                for c in MATRIX_COLS
            }
        elif n_links != self.n_links:
            raise ConfigurationError(
                f"linkstate recorder tracks {self.n_links} links; a run "
                f"with {n_links} links cannot share it"
            )

    def begin_run(self, **meta) -> int:
        """Register one simulator run; returns its run id.

        ``meta`` must include ``n_links``; the first run fixes the
        recorder's link count and later runs must match it.
        """
        if "n_links" not in meta:
            raise ConfigurationError("linkstate run metadata needs n_links")
        self._adopt_links(meta["n_links"])
        self.runs.append(dict(meta))
        self._next_index = 0
        return len(self.runs) - 1

    def set_link_endpoints(self, src, dst) -> None:
        """Record (or re-validate) the per-link endpoint tables."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ConfigurationError("link endpoint tables must be equal-length 1-D")
        if self._link_src is None:
            self._link_src = src.copy()
            self._link_dst = dst.copy()
        elif not (
            np.array_equal(self._link_src, src)
            and np.array_equal(self._link_dst, dst)
        ):
            raise ConfigurationError(
                "linkstate recorder already holds different link endpoints "
                "(one recorder tracks one topology)"
            )

    def _grow_to(self, rows: int) -> None:
        if rows <= self._cap:
            return
        cap = self._cap
        while cap < rows:
            cap *= 2
        for c, arr in self._col.items():
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._cap] = arr
            self._col[c] = grown
        if self._mat is not None:
            for c, arr in self._mat.items():
                grown = np.zeros((cap, self.n_links), dtype=np.int64)
                grown[: self._cap] = arr
                self._mat[c] = grown
        self._cap = cap

    def record_window(
        self,
        run: int,
        *,
        start: int,
        cycles: int,
        forwarded: Sequence[int],
        credit_stalls: Sequence[int],
        peak_occupancy: Sequence[int],
    ) -> None:
        """Append one dense window row (the simulator calls this at flush)."""
        if self._mat is None:
            raise ConfigurationError("record_window before begin_run")
        row = self.n_windows
        self._grow_to(row + 1)
        col = self._col
        col["run"][row] = run
        col["index"][row] = self._next_index
        self._next_index += 1
        col["start"][row] = start
        col["cycles"][row] = cycles
        for name, vals in (
            ("forwarded", forwarded),
            ("credit_stalls", credit_stalls),
            ("peak_occupancy", peak_occupancy),
        ):
            arr = np.asarray(vals, dtype=np.int64)
            if arr.shape != (self.n_links,):
                raise ConfigurationError(
                    f"{name} has shape {arr.shape}, expected ({self.n_links},)"
                )
            self._mat[name][row] = arr
        self.n_windows += 1

    # --------------------------------------------------- snapshot / merge
    def snapshot(self) -> dict:
        """Everything recorded so far as a plain dict of numpy arrays.

        Buffer capacity is deliberately excluded: a grown serial recorder
        and fresh per-worker recorders must snapshot identically.
        """
        n = self.n_windows
        snap = {
            "format": LINKSTATE_FORMAT,
            "window": self.window,
            "n_links": self.n_links,
            "n_runs": len(self.runs),
            "n_windows": n,
            "runs": [dict(r) for r in self.runs],
        }
        empty = np.zeros(0, dtype=np.int64)
        snap["link_src"] = (
            self._link_src.copy() if self._link_src is not None else empty
        )
        snap["link_dst"] = (
            self._link_dst.copy() if self._link_dst is not None else empty
        )
        for c in ROW_COLS:
            snap[f"ls_{c}"] = self._col[c][:n].copy()
        for c in MATRIX_COLS:
            snap[f"ls_{c}"] = (
                self._mat[c][:n].copy()
                if self._mat is not None
                else np.zeros((0, 0), dtype=np.int64)
            )
        return snap

    def merge(self, snap: Mapping) -> None:
        """Fold a worker snapshot into this recorder.

        Run ids are offset past this recorder's runs, so merging per-cell
        snapshots in task order reproduces exactly the link state a
        serial run under one recorder would have recorded.
        """
        if snap.get("format") != LINKSTATE_FORMAT:
            raise ConfigurationError(
                f"cannot merge linkstate snapshot of format {snap.get('format')!r}"
            )
        if int(snap["window"]) != self.window:
            raise ConfigurationError(
                "cannot merge linkstate snapshots with different window "
                f"({snap['window']} vs {self.window})"
            )
        snap_links = int(snap.get("n_links", 0))
        if snap_links:
            self._adopt_links(snap_links)
        src = np.asarray(snap.get("link_src", ()), dtype=np.int64)
        if src.size:
            self.set_link_endpoints(src, snap["link_dst"])
        run_off = len(self.runs)
        self.runs.extend(dict(r) for r in snap["runs"])
        n = int(snap["n_windows"])
        if not n:
            return
        row = self.n_windows
        self._grow_to(row + n)
        for c in ROW_COLS:
            vals = np.asarray(snap[f"ls_{c}"], dtype=np.int64)
            if c == "run":
                vals = vals + run_off
            self._col[c][row : row + n] = vals
        for c in MATRIX_COLS:
            self._mat[c][row : row + n] = np.asarray(
                snap[f"ls_{c}"], dtype=np.int64
            )
        self.n_windows += n


# ----------------------------------------------- module state / persistence
#: The process's active recorder (``None`` when link state is off) behind the
#: shared capture-layer lifecycle of :class:`~repro.obs.recorder.Slot`.
#: Simulators read :func:`active` once at construction.
_slot = Slot(LinkstateRecorder, LINKSTATE_FORMAT, ("window",))
enable = _slot.enable
disable = _slot.disable
enabled = _slot.enabled
active = _slot.active
config = _slot.config
capture = _slot.capture
snapshot = _slot.snapshot
merge_snapshot = _slot.merge_snapshot
save_linkstate = _slot.save
load_linkstate = _slot.load
