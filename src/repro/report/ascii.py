"""Terminal charts without plotting dependencies.

Two chart kinds cover the paper's figures: :func:`line_chart` for the
latency-versus-load curves (Figures 11-13) and :func:`bar_chart` for the
throughput comparisons (Figures 4-10).  The telemetry layer adds two
summary views: :func:`stage_timing_table` for a run's span timers and
:func:`link_load_report` for per-scheme link-utilization arrays (the
paper's KSP-piles-paths-onto-the-same-links claim, made visible).

Terminal-capability helpers live here too: :func:`supports_ansi` (honours
``NO_COLOR``, ``TERM=dumb`` and non-TTY streams), :func:`term_width`,
:func:`colorize`, :func:`sparkline`, and :func:`render_dashboard` — the
pure state-to-lines renderer behind the live run monitor
(:mod:`repro.obs.monitor`).  Charts clamp their width to the terminal so
narrow sessions degrade to narrower bars instead of wrapped garbage.
"""

from __future__ import annotations

import math
import os
import shutil
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.compare import reported
from repro.utils.tables import format_table

__all__ = [
    "line_chart",
    "bar_chart",
    "stage_timing_table",
    "link_load_report",
    "latency_decomposition_table",
    "path_share_table",
    "profile_hotspots_table",
    "ledger_table",
    "trend_table",
    "linkstate_heatmap",
    "stall_attribution_table",
    "flow_pair_table",
    "fairness_table",
    "congestion_tree_text",
    "supports_ansi",
    "term_width",
    "colorize",
    "sparkline",
    "render_dashboard",
]

_MARKERS = "ox+*#@%&"

# ------------------------------------------------- terminal capabilities
def supports_ansi(stream=None) -> bool:
    """Whether ``stream`` (default stdout) should receive ANSI escapes.

    False when the ``NO_COLOR`` convention is in force (any value),
    ``TERM`` is ``dumb``/unset-to-nothing, or the stream is not a TTY —
    redirected output gets plain text.
    """
    if os.environ.get("NO_COLOR") is not None:
        return False
    if os.environ.get("TERM", "") == "dumb":
        return False
    if stream is None:
        import sys

        stream = sys.stdout
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


def term_width(default: int = 80) -> int:
    """Best-effort terminal column count (``COLUMNS`` wins, else ioctl)."""
    try:
        return shutil.get_terminal_size((default, 24)).columns
    except (ValueError, OSError):
        return default


def colorize(text: str, code: str, stream=None) -> str:
    """Wrap ``text`` in an SGR escape iff the stream supports ANSI.

    ``code`` is the SGR parameter string (e.g. ``"31"`` red, ``"1;33"``
    bold yellow); with ANSI unsupported the text passes through unchanged.
    """
    if not supports_ansi(stream):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
_SPARK_ASCII = " .:-=+*#"


def sparkline(
    values: Sequence[float], *, width: Optional[int] = None, ascii_only: bool = False
) -> str:
    """One-line min-max-scaled chart of ``values`` (NaNs render as gaps).

    ``width`` keeps only the most recent values; ``ascii_only`` swaps the
    unicode eighth-blocks for plain ASCII shades (dumb terminals).
    """
    vals = [float(v) for v in values]
    if width is not None and width > 0:
        vals = vals[-width:]
    finite = [v for v in vals if not math.isnan(v)]
    if not finite:
        return " " * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    glyphs = _SPARK_ASCII if ascii_only else _SPARK_BLOCKS
    top = len(glyphs) - 1
    out = []
    for v in vals:
        if math.isnan(v):
            out.append(" ")
        elif span == 0:
            out.append(glyphs[top // 2])
        else:
            out.append(glyphs[int(round((v - lo) / span * top))])
    return "".join(out)


def line_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one or more (x, y) series on a character grid.

    Each series gets a marker from ``o x + * ...``; the legend maps markers
    back to labels.  Points outside a degenerate range collapse gracefully
    (a single point renders mid-axis).
    """
    if not series:
        raise ConfigurationError("line_chart needs at least one series")
    if width < 8 or height < 4:
        raise ConfigurationError("chart too small to render")
    # Narrow terminals get a narrower grid, never wrapped rows.
    width = max(8, min(width, term_width() - 2))
    pts = [(x, y) for s in series.values() for x, y in s]
    if not pts:
        raise ConfigurationError("all series are empty")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (label, points), marker in zip(series.items(), _MARKERS):
        for x, y in points:
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (top {y_max:.4g}, bottom {y_min:.4g})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_min:.4g} .. {x_max:.4g}")
    legend = "  ".join(
        f"{marker}={label}" for (label, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(" legend: " + legend)
    return "\n".join(lines)


def bar_chart(
    values: Mapping[str, float],
    *,
    width: int = 40,
    title: str = "",
    fmt: str = "{:.3f}",
) -> str:
    """Render labelled horizontal bars scaled to the maximum value."""
    if not values:
        raise ConfigurationError("bar_chart needs at least one value")
    if width < 4:
        raise ConfigurationError("chart too small to render")
    top = max(values.values())
    if top < 0:
        raise ConfigurationError("bar_chart needs non-negative values")
    label_w = max(len(k) for k in values)
    # Keep label + bar + value inside the terminal on narrow sessions.
    width = max(4, min(width, term_width() - label_w - 13))
    lines = [title] if title else []
    for label, v in values.items():
        if v < 0:
            raise ConfigurationError("bar_chart needs non-negative values")
        n = int(round(v / top * width)) if top > 0 else 0
        lines.append(f"{label.ljust(label_w)} | {'█' * n}{' ' * (width - n)} {fmt.format(v)}")
    return "\n".join(lines)


def stage_timing_table(
    timers: Mapping[str, Mapping],
    *,
    title: str = "stage timings",
) -> str:
    """Render a metrics snapshot's ``timers`` section as a table.

    ``timers`` maps span name to a histogram document (``count`` /
    ``total`` / ``min`` / ``max`` in seconds, as produced by
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`).  Rows are sorted
    by total time, descending — where the wall time actually went.
    """
    if not timers:
        return f"{title}: (no spans recorded)"
    rows = []
    for name, doc in sorted(
        timers.items(), key=lambda kv: kv[1].get("total", 0.0), reverse=True
    ):
        count = int(doc.get("count", 0))
        total = float(doc.get("total", 0.0))
        mean_ms = 1e3 * total / count if count else float("nan")
        max_ms = 1e3 * float(doc.get("max") or 0.0)
        rows.append([name, count, round(total, 3), round(mean_ms, 1), round(max_ms, 1)])
    return format_table(
        ["stage", "count", "total (s)", "mean (ms)", "max (ms)"],
        rows,
        title=title,
    )


def link_load_report(
    link_flits: Mapping[str, Sequence[int]],
    *,
    top_n: int = 5,
    title: str = "link load by scheme",
) -> str:
    """Per-scheme link-load-imbalance summary from flit-count arrays.

    ``link_flits`` maps a scheme label to its per-directed-link flit
    counts (the ``netsim.link_flits/<scheme>`` arrays of a metrics
    snapshot).  For each scheme the report shows total flits, the
    max/mean ratio over links that carried traffic (the imbalance figure:
    deterministic KSP concentrates flits on few links, so its ratio sits
    well above a randomized scheme's on the same topology and seed) and
    the ``top_n`` hottest link ids.
    """
    if not link_flits:
        return f"{title}: (no link data recorded)"
    rows = []
    hottest_lines = []
    for scheme, counts in sorted(link_flits.items()):
        arr = np.asarray(counts, dtype=np.float64)
        total = float(arr.sum())
        mean = float(arr.mean()) if arr.size else 0.0
        peak = float(arr.max()) if arr.size else 0.0
        ratio = peak / mean if mean > 0 else float("nan")
        used = int((arr > 0).sum())
        rows.append(
            [scheme, int(total), used, round(mean, 1), int(peak), round(ratio, 2)]
        )
        order = np.argsort(arr)[::-1][:top_n]
        hottest = ", ".join(
            f"#{int(i)}:{int(arr[i])}" for i in order if arr[i] > 0
        )
        hottest_lines.append(f"  {scheme} hottest links: {hottest or '(none)'}")
    out = format_table(
        ["scheme", "flits", "links used", "mean/link", "max/link", "max/mean"],
        rows,
        title=title,
    )
    return out + "\n" + "\n".join(hottest_lines)


def profile_hotspots_table(
    stats,
    *,
    top: int = 10,
    title: str = "profile hotspots (cumulative)",
) -> str:
    """Render a :class:`pstats.Stats` as a top-``top`` cumulative table.

    One row per function, sorted by cumulative time: calls, total time
    spent inside the function itself, cumulative time including callees,
    and ``file:line(name)`` trimmed to the basename — the same view
    ``print_stats`` gives, but aligned with the other telemetry tables
    and bounded to the hotspots that matter.
    """
    entries = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in (
        stats.stats.items()
    ):
        entries.append((ct, tt, nc, cc, filename, lineno, func))
    if not entries:
        return f"{title}: (no calls recorded)"
    entries.sort(reverse=True)
    rows = []
    for ct, tt, nc, cc, filename, lineno, func in entries[:top]:
        calls = str(nc) if nc == cc else f"{nc}/{cc}"
        where = f"{os.path.basename(filename)}:{lineno}({func})"
        rows.append([where, calls, round(tt, 3), round(ct, 3)])
    return format_table(
        ["function", "calls", "tottime (s)", "cumtime (s)"],
        rows,
        title=title,
    )


def latency_decomposition_table(
    decomp: Mapping[str, Mapping],
    *,
    title: str = "latency decomposition (cycles)",
) -> str:
    """Render a :meth:`TraceAnalysis.latency_decomposition` result.

    One row per ``scheme/mechanism`` label: how many packets were traced
    to delivery and where their cycles went — waiting at the source NIC,
    queued inside switches, or pure serialization (channel traversals).
    The three components sum to the total, so a scheme whose ``switch
    queue`` column dominates is congestion-bound, not path-length-bound.
    """
    if not decomp:
        return f"{title}: (no delivered packets traced)"
    rows = []
    for label, doc in sorted(decomp.items()):
        rows.append(
            [
                label,
                int(doc["count"]),
                round(float(doc["mean_total"]), 1),
                round(float(doc["mean_source_queue"]), 1),
                round(float(doc["mean_switch_queue"]), 1),
                round(float(doc["mean_serialization"]), 1),
                round(float(doc["mean_hops"]), 2),
            ]
        )
    return format_table(
        ["run", "packets", "total", "src queue", "switch queue", "serialize", "hops"],
        rows,
        title=title,
    )


def path_share_table(
    shares: Mapping[str, Mapping[int, int]],
    *,
    title: str = "path-index load share",
) -> str:
    """Render a :meth:`TraceAnalysis.path_shares` result.

    One row per ``scheme/mechanism`` label showing what fraction of traced
    packets took each precomputed path index (``k0`` is the shortest
    path).  ``off-table`` counts packets routed outside the k-path set —
    Valiant composites under vanilla UGAL; anything else would be flagged
    by the route audit.
    """
    if not shares:
        return f"{title}: (no routed packets traced)"
    indices = sorted(
        {i for dist in shares.values() for i in dist if i >= 0}
    )
    header = ["run", "packets"] + [f"k{i}" for i in indices] + ["off-table"]
    rows = []
    for label, dist in sorted(shares.items()):
        total = sum(dist.values())
        row = [label, total]
        for i in indices:
            pct = 100.0 * dist.get(i, 0) / total if total else 0.0
            row.append(f"{pct:.1f}%")
        off = 100.0 * dist.get(-1, 0) / total if total else 0.0
        row.append(f"{off:.1f}%")
        rows.append(row)
    return format_table(header, rows, title=title)


def ledger_table(
    entries: Sequence[Mapping],
    *,
    title: str = "run ledger",
) -> str:
    """Tabulate run-ledger entries (``repro.obs.ledger`` documents).

    One row per entry in ledger (time) order: id, timestamp, kind,
    what ran, where, which engine tiers, and wall time.  Deterministic
    for a fixed ledger — no terminal-width dependence — so the output
    is diffable between invocations.
    """
    if not entries:
        return f"{title}: (no entries)"
    rows = []
    for e in entries:
        created = str(e.get("created_at") or "")[:19]
        wall = e.get("wall_time_s")
        engines = ",".join(e.get("engines") or ()) or "-"
        rows.append(
            [
                str(e.get("id", ""))[:12],
                created,
                str(e.get("kind", "")),
                str(e.get("experiment", "")),
                str(e.get("scale", "")),
                str(e.get("host") or "-"),
                engines,
                f"{float(wall):.3f}" if wall is not None else "-",
            ]
        )
    out = format_table(
        ["id", "created", "kind", "experiment", "scale", "host", "engines",
         "wall (s)"],
        rows,
        title=title,
    )
    return out + f"\n{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}"


# --------------------------------------------------- congestion forensics
_HEAT_SHADES = " .:-=+*#"


def linkstate_heatmap(
    rows: Sequence[Sequence[int]],
    row_labels: Sequence[str],
    *,
    max_cols: int = 64,
    title: str = "link-state heatmap",
    axis: str = "window",
) -> str:
    """Render per-link window series as a links-by-windows shade grid.

    ``rows[i][w]`` is link ``i``'s value in window ``w``; all rows share
    one global scale (blank = 0 up to ``#`` = the grid maximum).  When
    there are more windows than ``max_cols``, adjacent windows collapse
    into fixed bins by maximum, so a long run still fits one screen.
    ``axis`` names the column dimension in the footer (flow heatmaps
    reuse this grid with hosts as columns).  Deterministic: no terminal
    queries, fixed shade alphabet.
    """
    if len(rows) != len(row_labels):
        raise ConfigurationError(
            f"{len(rows)} rows but {len(row_labels)} labels"
        )
    if not rows:
        return f"{title}: (no links)"
    grid = np.asarray([list(r) for r in rows], dtype=np.int64)
    n_windows = grid.shape[1]
    if n_windows > max_cols:
        bins = np.array_split(np.arange(n_windows), max_cols)
        grid = np.stack([grid[:, b].max(axis=1) for b in bins], axis=1)
    hi = int(grid.max())
    top = len(_HEAT_SHADES) - 1
    width = max(len(lab) for lab in row_labels)
    lines = [title] if title else []
    for label, row in zip(row_labels, grid):
        if hi == 0:
            shades = " " * len(row)
        else:
            # 0 stays blank; anything non-zero gets at least the
            # faintest shade.
            idx = np.ceil(row / hi * top).astype(np.int64)
            shades = "".join(_HEAT_SHADES[int(i)] for i in idx)
        lines.append(f"   {label.ljust(width)} |{shades}|")
    axis = f"{axis} 0..{n_windows - 1}"
    if n_windows > max_cols:
        axis += f" ({grid.shape[1]} bins, max-pooled)"
    lines.append(f"   {' ' * width}  {axis}; scale blank=0 .. '#'={hi}")
    return "\n".join(lines)


def flow_pair_table(
    rows: Sequence[Mapping],
    *,
    victim_ids: Optional[Set[int]] = None,
    title: str = "worst flows by p99 latency",
) -> str:
    """Tabulate per-pair digests from :func:`repro.obs.fairness.pair_stats`.

    ``victim_ids`` marks pairs flagged by the victim detector with a
    ``*`` in the first column.
    """
    if not rows:
        return f"{title}: (no measured flows)"
    victims = victim_ids or set()
    body = [
        [
            ("*" if int(e["pair"]) in victims else "") + str(e["label"]),
            int(e["delivered"]),
            f"{float(e['mean']):.1f}",
            f"{float(e['p50']):.1f}",
            f"{float(e['p99']):.1f}",
            int(e["max"]),
        ]
        for e in rows
    ]
    return format_table(
        ["pair", "delivered", "mean", "p50", "p99", "max"],
        body,
        title=title,
    )


def fairness_table(
    summaries: Sequence[Mapping],
    *,
    title: str = "per-run flow fairness",
) -> str:
    """Tabulate per-run rollups: :func:`repro.obs.fairness.run_summary`
    results or the runs of a :func:`repro.obs.fairness.flow_docs`
    document (both carry ``victim_total``)."""
    if not summaries:
        return f"{title}: (no runs)"

    def _f(v, spec=".1f"):
        v = float(v)
        return "-" if v != v else format(v, spec)

    body = [
        [
            str(s["label"]),
            int(s["pairs_active"]),
            int(s["delivered"]),
            _f(s["jain"], ".4f"),
            _f(s["median_p99"]),
            _f(s["worst"]["p99"]) if s["worst"] is not None else "-",
            _f(s["spread"], ".2f"),
            int(s["victim_total"]),
        ]
        for s in summaries
    ]
    return format_table(
        [
            "run", "pairs", "delivered", "jain", "p99 med",
            "p99 worst", "spread", "victims",
        ],
        body,
        title=title,
    )


def stall_attribution_table(
    ranked: Sequence[Mapping],
    *,
    title: str = "credit-stall attribution (hottest links)",
) -> str:
    """Tabulate :func:`repro.obs.forensics.rank_stalled_links` output."""
    if not ranked:
        return f"{title}: (no stalls recorded)"
    rows = [
        [
            f"#{int(e['link'])}",
            str(e["label"]),
            int(e["credit_stalls"]),
            f"{100.0 * float(e['share']):.1f}%",
            int(e["forwarded"]),
            int(e["peak_occupancy"]),
        ]
        for e in ranked
    ]
    return format_table(
        ["link", "endpoints", "stalls", "share", "forwarded", "peak occ"],
        rows,
        title=title,
    )


def congestion_tree_text(
    tree: Mapping,
    *,
    title: str = "backpressure tree (stall wave, downstream root to upstream leaves)",
) -> str:
    """Render a :func:`repro.obs.forensics.congestion_tree` as text.

    The root is the saturated link; each ``<-`` level is one hop further
    upstream — the links stalled because the level below them could not
    drain.
    """
    lines = [title] if title else []

    def emit(node: Mapping, depth: int) -> None:
        indent = "   " + "   " * depth
        arrow = "<- " if depth else ""
        lines.append(
            f"{indent}{arrow}{node['label']}  "
            f"stalls={int(node['credit_stalls'])} "
            f"({100.0 * float(node['share']):.1f}%)  "
            f"fwd={int(node['forwarded'])}  "
            f"peak={int(node['peak_occupancy'])}"
        )
        for child in node.get("children", ()):
            emit(child, depth + 1)

    emit(tree, 0)
    return "\n".join(lines)


def trend_table(
    report,
    *,
    show_all: bool = False,
    spark_width: int = 16,
    title: str = "metric trends",
) -> str:
    """Render a :class:`repro.obs.trend.TrendReport` as sparkline tables.

    One row per (series, metric): run count, a fixed-width sparkline of
    the window (oldest to newest), the window-median baseline, the
    latest value, the relative delta, and a flag column — ``REGRESSION``
    for gated drifts, plus the changepoint note.  By default only the
    metrics :func:`repro.obs.compare.reported` names (timings, engine
    cycles/sec, the latency/fairness SLO gauges) and any regressed
    metric are shown; ``show_all`` includes counters and other gauges.
    Deterministic: fixed sparkline width, no terminal queries.
    """
    shown = [
        t for t in report.trends if show_all or t.regression or reported(t.metric)
    ]
    if not shown:
        return f"{title}: (no trendable metrics)"
    rows = []
    for t in shown:
        delta = 100.0 * (t.ratio - 1.0) if t.baseline > 0 else float("inf")
        flag = "REGRESSION" if t.regression else ""
        if t.note:
            flag = (flag + " " + t.note).strip()
        rows.append(
            [
                t.label,
                t.metric,
                len(t.values),
                sparkline(t.values, width=spark_width),
                f"{t.baseline:.4g}",
                f"{t.latest:.4g}",
                f"{delta:+.1f}%",
                flag,
            ]
        )
    table = format_table(
        ["series", "metric", "n", "trend", "baseline", "latest",
         "delta", "flag"],
        rows,
        title=title,
    )
    n = len(report.regressions)
    return table + (f"\n{n} trend regression(s)" if n else "\nno trend regressions")


def render_dashboard(
    state: Mapping, *, ansi: bool = False, width: Optional[int] = None
) -> List[str]:
    """Render the live monitor's state dict as dashboard lines.

    Pure function — the monitor owns timing, queues and cursor movement;
    this owns layout, so tests can assert on lines without a TTY.  Expects
    the state shape :class:`repro.obs.monitor.RunMonitor` maintains:
    ``label`` / ``done`` / ``total`` / ``elapsed``, recent ``rates`` and
    ``lats`` window samples, and a ``workers`` map of per-worker dicts
    (``label``, ``rate``, ``lat``, ``beats``, ``age``, ``stale``).
    """
    cols = width if width is not None else term_width()
    cols = max(30, cols)
    spark_w = max(8, min(24, cols - 56))
    lines: List[str] = []

    label = str(state.get("label") or "run")
    done = int(state.get("done", 0))
    total = int(state.get("total", 0))
    elapsed = float(state.get("elapsed", 0.0))
    from repro.obs.progress import format_eta

    head = f"◉ {label} · {done}/{total} tasks · {format_eta(elapsed)} elapsed"
    if total > 0 and 0 < done < total and elapsed > 0:
        head += f" · ETA {format_eta(elapsed * (total - done) / done)}"
    lines.append(head)

    rates = list(state.get("rates") or [])
    lats = list(state.get("lats") or [])
    ascii_only = not ansi
    if rates:
        cur = next((v for v in reversed(rates) if not math.isnan(v)), float("nan"))
        lines.append(
            f"  throughput {sparkline(rates, width=spark_w, ascii_only=ascii_only)}"
            f" {cur:.3f} flits/host/cycle"
        )
    if lats:
        cur = next((v for v in reversed(lats) if not math.isnan(v)), float("nan"))
        lines.append(
            f"  latency    {sparkline(lats, width=spark_w, ascii_only=ascii_only)}"
            f" {cur:.1f} cycles"
        )

    workers = state.get("workers") or {}
    for wid in sorted(workers):
        w = workers[wid]
        stale = bool(w.get("stale"))
        mark = "◌" if stale else "●"
        wl = str(w.get("label") or "idle")
        rate = w.get("rate")
        lat = w.get("lat")
        tail = ""
        if rate is not None and not math.isnan(rate):
            tail += f"  rate {rate:.3f}"
        if lat is not None and not math.isnan(lat):
            tail += f"  lat {lat:.1f}"
        tail += f"  beats {int(w.get('beats', 0))}"
        if stale:
            age = float(w.get("age", 0.0))
            flag = f"STALE {age:.1f}s"
            if ansi:
                flag = f"\x1b[31m{flag}\x1b[0m"
            tail += f"  {flag}"
        line = f"  {mark} w{wid} {wl}{tail}"
        lines.append(line)

    # Clamp every line to the terminal; ANSI escapes are only ever in the
    # tail of stale rows, which survive clamping in practice — but never
    # emit a line that would wrap.
    out = []
    for line in lines:
        if ansi and "\x1b[" in line:
            out.append(line)
        else:
            out.append(line[:cols])
    return out
