"""Windowed time-series telemetry for the flit-level simulator.

The metrics registry (:mod:`repro.obs.metrics`) and the flight recorder
(:mod:`repro.obs.trace`) both answer *end-of-run* questions — totals and
per-packet events.  This module records how a run *evolved*: the
simulator slices its cycle loop into fixed-width windows and reports one
row per window — flits injected and ejected, the mean latency of the
window's ejections, credit stalls, flits forwarded, total VC-buffer
occupancy, and the ``top_links`` hottest links of the window — into
preallocated columnar numpy buffers.

The module functions (:func:`enable` / :func:`capture` / ... /
:func:`save_timeseries` / :func:`load_timeseries`) are the shared
capture-layer lifecycle of :class:`repro.obs.recorder.Slot`.  With the
recorder off the simulator pays one ``is None`` test at construction
plus one cheap boolean test per phase call — nothing per cycle; worker
snapshots merge with run-id offsets (:meth:`TimeseriesRecorder.merge`),
so a parallel ``run_saturation_grid`` produces the byte-identical time
series of a serial run.

On top of the raw series sit the steady-state tools:
:func:`spans_converged` is a moving-window convergence test,
:func:`detect_convergence` finds the first window where every series
passes it, and :func:`steady_state_report` replays it over a recorded
snapshot to report, per run, whether the configured warmup was actually
sufficient (the number the manifest carries).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.recorder import Slot

__all__ = [
    "TIMESERIES_FORMAT",
    "WINDOW_COLS",
    "TimeseriesRecorder",
    "spans_converged",
    "detect_convergence",
    "run_series",
    "steady_state_report",
    "enable",
    "disable",
    "enabled",
    "active",
    "capture",
    "config",
    "snapshot",
    "merge_snapshot",
    "save_timeseries",
    "load_timeseries",
]

TIMESERIES_FORMAT = "repro-timeseries-v1"

#: Scalar per-window columns (all int64).  ``lat_sum`` divided by
#: ``ejected`` gives the window's mean packet latency; ``occupancy`` is
#: the total buffered-flit count sampled at the window's closing edge.
WINDOW_COLS = (
    "run", "index", "start", "cycles", "injected", "ejected",
    "lat_sum", "credit_stalls", "forwarded", "occupancy",
)


class TimeseriesRecorder:
    """Columnar per-window store fed by the simulator at window edges.

    Parameters
    ----------
    window:
        Window width in cycles.  The simulator flushes a row whenever the
        absolute cycle count crosses a multiple of ``window`` (plus one
        final partial row at the end of a run).
    capacity:
        Initially preallocated rows; buffers double when exceeded (no
        ring overwrite — windows are few compared to packets).
    top_links:
        How many of the window's hottest directed links to record (ids
        and flit counts, hottest first, ties broken by link id).
    """

    def __init__(self, window: int = 100, capacity: int = 1024, top_links: int = 4):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if top_links < 0:
            raise ConfigurationError(f"top_links must be >= 0, got {top_links}")
        self.window = int(window)
        self.top_links = int(top_links)
        self.runs: List[dict] = []
        self.n_windows = 0
        self._cap = int(capacity)
        self._col: Dict[str, np.ndarray] = {
            c: np.zeros(self._cap, dtype=np.int64) for c in WINDOW_COLS
        }
        # With top_links=0 the per-window link columns carry no data, so
        # they stay fixed zero-row stubs: no allocation with capacity,
        # no copies on growth, nothing folded on merge.
        rows = self._cap if self.top_links else 0
        self._top_ids = np.full((rows, self.top_links), -1, dtype=np.int64)
        self._top_flits = np.zeros((rows, self.top_links), dtype=np.int64)
        self._next_index = 0  # window index within the current run
        #: Optional live hook: called as ``on_window(run_meta, row_dict)``
        #: after every recorded window (the run monitor's heartbeat feed).
        self.on_window: Optional[Callable[[dict, dict], None]] = None

    # --------------------------------------------------------- recording
    def begin_run(self, **meta) -> int:
        """Register one simulator run; returns its run id."""
        self.runs.append(dict(meta))
        self._next_index = 0
        return len(self.runs) - 1

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
        if self.top_links:
            ids = np.full((cap, self.top_links), -1, dtype=np.int64)
            ids[: self._cap] = self._top_ids
            self._top_ids = ids
            flits = np.zeros((cap, self.top_links), dtype=np.int64)
            flits[: self._cap] = self._top_flits
            self._top_flits = flits
        self._cap = cap

    def record_window(
        self,
        run: int,
        *,
        start: int,
        cycles: int,
        injected: int,
        ejected: int,
        lat_sum: int,
        credit_stalls: int,
        forwarded: int,
        occupancy: int,
        link_flits: Optional[Sequence[int]] = None,
    ) -> None:
        """Append one window row (the simulator calls this at flush)."""
        row = self.n_windows
        self._grow_to(row + 1)
        col = self._col
        index = self._next_index
        self._next_index += 1
        col["run"][row] = run
        col["index"][row] = index
        col["start"][row] = start
        col["cycles"][row] = cycles
        col["injected"][row] = injected
        col["ejected"][row] = ejected
        col["lat_sum"][row] = lat_sum
        col["credit_stalls"][row] = credit_stalls
        col["forwarded"][row] = forwarded
        col["occupancy"][row] = occupancy
        if self.top_links and link_flits is not None:
            arr = np.asarray(link_flits, dtype=np.int64)
            k = min(self.top_links, len(arr))
            # Deterministic top-k: hottest first, ties by ascending id.
            order = np.lexsort((np.arange(len(arr)), -arr))[:k]
            self._top_ids[row, :k] = order
            self._top_flits[row, :k] = arr[order]
        self.n_windows += 1
        hook = self.on_window
        if hook is not None:
            meta = self.runs[run] if 0 <= run < len(self.runs) else {}
            hook(meta, {c: int(col[c][row]) for c in WINDOW_COLS})

    # --------------------------------------------------- snapshot / merge
    def snapshot(self) -> dict:
        """Everything recorded so far as a plain dict of numpy arrays.

        Buffer capacity is deliberately excluded: a grown serial recorder
        and fresh per-worker recorders must snapshot identically.
        """
        n = self.n_windows
        snap = {
            "format": TIMESERIES_FORMAT,
            "window": self.window,
            "top_links": self.top_links,
            "n_runs": len(self.runs),
            "n_windows": n,
            "runs": [dict(r) for r in self.runs],
        }
        for c in WINDOW_COLS:
            snap[f"win_{c}"] = self._col[c][:n].copy()
        if self.top_links:
            snap["win_top_ids"] = self._top_ids[:n].copy()
            snap["win_top_flits"] = self._top_flits[:n].copy()
        else:
            # Schema-stable zero-width columns: same keys, shape (n, 0).
            snap["win_top_ids"] = np.full((n, 0), -1, dtype=np.int64)
            snap["win_top_flits"] = np.zeros((n, 0), dtype=np.int64)
        return snap

    def merge(self, snap: Mapping) -> None:
        """Fold a worker snapshot into this recorder.

        Run ids are offset past this recorder's runs, so merging per-cell
        snapshots in task order reproduces exactly the series a serial
        run under one recorder would have recorded.
        """
        if snap.get("format") != TIMESERIES_FORMAT:
            raise ConfigurationError(
                f"cannot merge timeseries snapshot of format {snap.get('format')!r}"
            )
        if int(snap["window"]) != self.window or int(snap["top_links"]) != self.top_links:
            raise ConfigurationError(
                "cannot merge timeseries snapshots with different window "
                f"({snap['window']} vs {self.window}) or top_links "
                f"({snap['top_links']} vs {self.top_links})"
            )
        run_off = len(self.runs)
        self.runs.extend(dict(r) for r in snap["runs"])
        n = int(snap["n_windows"])
        if not n:
            return
        row = self.n_windows
        self._grow_to(row + n)
        for c in WINDOW_COLS:
            vals = np.asarray(snap[f"win_{c}"], dtype=np.int64)
            if c == "run":
                vals = vals + run_off
            self._col[c][row : row + n] = vals
        if self.top_links:
            self._top_ids[row : row + n] = np.asarray(
                snap["win_top_ids"], dtype=np.int64
            )
            self._top_flits[row : row + n] = np.asarray(
                snap["win_top_flits"], dtype=np.int64
            )
        self.n_windows += n


# ------------------------------------------------------------ analysis
def spans_converged(
    values: Sequence[float], check_windows: int, rel_tol: float
) -> bool:
    """Moving-window convergence test over the tail of ``values``.

    Compares the mean of the last ``check_windows`` values against the
    mean of the ``check_windows`` before them: converged when the
    relative difference is within ``rel_tol``.  ``False`` while fewer
    than ``2 * check_windows`` values exist or when either span contains
    a NaN (a window that delivered nothing has no latency).
    """
    m = int(check_windows)
    if m < 1 or len(values) < 2 * m:
        return False
    tail = [float(v) for v in values[-2 * m :]]
    if any(math.isnan(v) for v in tail):
        return False
    a = sum(tail[:m]) / m
    b = sum(tail[m:]) / m
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return True  # both spans identically zero: flat is converged
    return abs(b - a) <= rel_tol * denom


def detect_convergence(
    series: Sequence[Sequence[float]], check_windows: int, rel_tol: float
) -> Optional[int]:
    """First window count after which *every* series tests converged.

    Returns the number of windows consumed (``>= 2 * check_windows``),
    or ``None`` if the series never converge.
    """
    if not series:
        return None
    n = min(len(s) for s in series)
    for t in range(2 * int(check_windows), n + 1):
        if all(spans_converged(s[:t], check_windows, rel_tol) for s in series):
            return t
    return None


def run_series(snap: Mapping, run: int) -> Dict[str, np.ndarray]:
    """One run's windows as derived per-window series.

    Returns ``start``/``cycles`` plus ``injection_rate`` and
    ``ejection_rate`` (flits per host per cycle, using the run's
    ``n_hosts`` metadata when present) and ``latency`` (mean cycles of
    the window's ejections, NaN for empty windows), ordered by window
    index.
    """
    mask = np.asarray(snap["win_run"], dtype=np.int64) == run
    order = np.argsort(np.asarray(snap["win_index"], dtype=np.int64)[mask])
    cols = {c: np.asarray(snap[f"win_{c}"], dtype=np.int64)[mask][order] for c in WINDOW_COLS}
    runs = snap.get("runs", [])
    meta = runs[run] if 0 <= run < len(runs) else {}
    hosts = max(1, int(meta.get("n_hosts", 1)))
    cycles = np.maximum(cols["cycles"], 1).astype(np.float64)
    ejected = cols["ejected"].astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        latency = np.where(ejected > 0, cols["lat_sum"] / ejected, np.nan)
    return {
        "start": cols["start"],
        "cycles": cols["cycles"],
        "injected": cols["injected"],
        "ejected": cols["ejected"],
        "injection_rate": cols["injected"] / (cycles * hosts),
        "ejection_rate": ejected / (cycles * hosts),
        "latency": latency,
        "credit_stalls": cols["credit_stalls"],
        "forwarded": cols["forwarded"],
        "occupancy": cols["occupancy"],
    }


def steady_state_report(
    snap: Mapping, *, check_windows: int = 4, rel_tol: float = 0.05
) -> dict:
    """Per-run warmup-sufficiency verdicts from a recorded snapshot.

    For every run, replays :func:`detect_convergence` over the windowed
    ejection rate and mean latency and compares the first converged cycle
    against the run's ``warmup_cycles`` (or the ``warmup_cycles_used``
    that artifacts of older, convergence-driven runs carry).
    A run whose series never converge — or converge only after warmup
    ended — had an insufficient warmup: its measurement window includes
    transient behaviour.  The test needs ``2 * check_windows`` windows
    before it can call a series converged, so a run whose warmup ends
    before its ``2 * check_windows``-th window does gets no verdict:
    ``warmup_sufficient`` is ``None`` and the run counts in
    ``n_undetermined``.
    """
    m = 2 * int(check_windows)
    runs = []
    n_sufficient = 0
    n_converged = 0
    n_undetermined = 0
    for r, meta in enumerate(snap.get("runs", [])):
        series = run_series(snap, r)
        t = detect_convergence(
            [series["ejection_rate"].tolist(), series["latency"].tolist()],
            check_windows, rel_tol,
        )
        warmup = int(meta.get("warmup_cycles_used", meta.get("warmup_cycles", 0)))
        ends = series["start"] + series["cycles"]
        converged_at = None
        if t is not None and t >= 1:
            converged_at = int(ends[t - 1])
        sufficient = None
        if 0 < m <= len(ends) and int(ends[m - 1]) <= warmup:
            sufficient = converged_at is not None and converged_at <= warmup
        n_converged += converged_at is not None
        n_sufficient += sufficient is True
        n_undetermined += sufficient is None
        runs.append(
            {
                "run": r,
                "scheme": meta.get("scheme"),
                "mechanism": meta.get("mechanism"),
                "rate": meta.get("rate"),
                "warmup_cycles": warmup,
                "converged_at_cycle": converged_at,
                "warmup_sufficient": sufficient,
            }
        )
    return {
        "check_windows": int(check_windows),
        "rel_tol": float(rel_tol),
        "n_runs": len(runs),
        "n_converged": n_converged,
        "n_warmup_sufficient": n_sufficient,
        "n_undetermined": n_undetermined,
        "runs": runs,
    }


# ----------------------------------------------- module state / persistence
#: The process's active recorder (``None`` when time series are off) behind the
#: shared capture-layer lifecycle of :class:`~repro.obs.recorder.Slot`.
#: Simulators read :func:`active` once at construction.
_slot = Slot(TimeseriesRecorder, TIMESERIES_FORMAT, ("window", "top_links"))
enable = _slot.enable
disable = _slot.disable
enabled = _slot.enabled
active = _slot.active
config = _slot.config
capture = _slot.capture
snapshot = _slot.snapshot
merge_snapshot = _slot.merge_snapshot
save_timeseries = _slot.save
load_timeseries = _slot.load
