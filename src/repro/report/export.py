"""Machine-readable export of experiment results (JSON / CSV) and the
static HTML fleet dashboard rendered from the run ledger."""

from __future__ import annotations

import csv
import html as _html
import io
import json
from pathlib import Path
from typing import Any, List, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.obs.compare import reported

__all__ = [
    "result_to_json",
    "result_to_csv",
    "save_result",
    "trend_dashboard_html",
    "forensics_html",
    "flowstats_html",
]


def _jsonable(value: Any):
    """Recursively coerce result payloads (numpy scalars, tuples) to JSON."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def result_to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Serialise a full ExperimentResult (table + raw data) to JSON."""
    payload = {
        "experiment": result.experiment,
        "title": result.title,
        "scale": result.scale,
        "notes": result.notes,
        "headers": list(result.headers),
        "rows": _jsonable(result.rows),
        "data": _jsonable(result.data),
    }
    return json.dumps(payload, indent=indent)


def result_to_csv(result: ExperimentResult) -> str:
    """Serialise the result's table (headers + rows) to CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(result.headers)
    for row in result.rows:
        writer.writerow(row)
    return buf.getvalue()


# ------------------------------------------------------ fleet dashboard
#
# A self-contained static HTML page: no scripts, no external assets, and
# byte-deterministic for a fixed ledger (CI publishes it as a build
# artifact, so identical inputs must yield identical bytes).  Color
# follows the dataviz rules: one categorical hue for the single data
# series, status colors only for regression state (always paired with a
# text label, never color alone), text in ink tokens, and a light/dark
# pair selected per surface rather than auto-inverted.

_DASH_CSS = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series: #2a78d6; --critical: #d03b3b; --good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series: #3987e5; --critical: #e66767; --good: #0ca30c;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .value.bad { color: var(--critical); }
.tile .value.ok { color: var(--good); }
.callout { background: var(--surface); border: 1px solid var(--border);
  border-left: 3px solid var(--critical); border-radius: 6px;
  padding: 8px 12px; margin: 6px 0; }
.callout .tag { color: var(--critical); font-weight: 600; }
.cards { display: grid; gap: 14px;
  grid-template-columns: repeat(auto-fill, minmax(340px, 1fr)); }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; }
.card .name { font-weight: 600; font-size: 13px; }
.card .where { color: var(--ink-2); font-size: 12px; margin-bottom: 6px; }
.card .delta { font-size: 12px; color: var(--ink-2); }
.card .delta .bad { color: var(--critical); font-weight: 600; }
svg { display: block; width: 100%; height: auto; }
svg text { font: 10px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--muted); font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; background: var(--surface);
  font-variant-numeric: tabular-nums; }
th, td { border: 1px solid var(--grid); padding: 4px 10px;
  text-align: left; font-size: 13px; }
th { color: var(--ink-2); font-weight: 600; }
details { margin-top: 6px; }
summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
"""


def _fmt(v: float) -> str:
    """Compact deterministic number format for labels and tables."""
    if v != v:  # NaN
        return "nan"
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def _page(title: str, heading: str, sub: str) -> List[str]:
    """The opening lines every page shares: head, style, heading, lede."""
    return [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>repro · {title}</title>",
        f"<style>{_DASH_CSS}</style></head><body>",
        f"<h1>{heading}</h1>",
        f'<p class="sub">{sub}</p>',
    ]


def _tiles(items: Sequence[tuple]) -> str:
    """A row of headline stat tiles from ``(label, value[, cls])`` items.

    A ``cls`` (status class, may be empty) marks a tile whose value can
    carry a status colour; without one the value has no extra class.
    """
    esc = _html.escape
    out = ['<div class="tiles">']
    for label, value, *cls in items:
        value_cls = f"value {cls[0]}" if cls else "value"
        out.append(
            f'<div class="tile"><div class="label">{esc(label)}</div>'
            f'<div class="{value_cls}">{esc(value)}</div></div>'
        )
    out.append("</div>")
    return "\n".join(out)


def _trend_svg(values: Sequence[float], *, regressed: bool) -> str:
    """One single-series trend chart as inline SVG.

    2px line, end marker with a surface ring, ~10% area wash, hairline
    gridlines, three y ticks.  Native ``<title>`` tooltips on oversized
    hover targets carry per-run values.  The latest marker turns the
    critical status color when the trend regressed — always alongside
    the textual REGRESSION tag in the card, never color alone.
    """
    w, h = 320, 110
    left, right, top, bottom = 42, 10, 8, 18
    pw, ph = w - left - right, h - top - bottom
    lo, hi = min(values), max(values)
    span = (hi - lo) or (abs(hi) or 1.0)
    lo_pad, span_pad = lo - 0.08 * span, 1.16 * span

    def x(i: int) -> float:
        n = len(values)
        return left + (pw * i / (n - 1) if n > 1 else pw / 2)

    def y(v: float) -> float:
        return top + ph * (1.0 - (v - lo_pad) / span_pad)

    parts = [
        f'<svg viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="trend over {len(values)} runs">'
    ]
    # Hairline gridlines + y ticks at min / mid / max of the data range.
    for tv in (lo, (lo + hi) / 2.0, hi):
        ty = round(y(tv), 2)
        parts.append(
            f'<line x1="{left}" y1="{ty}" x2="{w - right}" y2="{ty}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 4}" y="{ty + 3}" text-anchor="end">'
            f"{_fmt(tv)}</text>"
        )
    pts = [(round(x(i), 2), round(y(v), 2)) for i, v in enumerate(values)]
    if len(pts) > 1:
        base_y = round(top + ph, 2)
        area = (
            f"M{pts[0][0]},{base_y} "
            + " ".join(f"L{px},{py}" for px, py in pts)
            + f" L{pts[-1][0]},{base_y} Z"
        )
        parts.append(
            f'<path d="{area}" fill="var(--series)" opacity="0.1"/>'
        )
        line = "M" + " L".join(f"{px},{py}" for px, py in pts)
        parts.append(
            f'<path d="{line}" fill="none" stroke="var(--series)" '
            f'stroke-width="2" stroke-linejoin="round" '
            f'stroke-linecap="round"/>'
        )
    # Oversized hover targets with native tooltips (run index + value).
    for i, ((px, py), v) in enumerate(zip(pts, values)):
        parts.append(
            f'<circle cx="{px}" cy="{py}" r="10" fill="transparent">'
            f"<title>run {i + 1}: {_fmt(v)}</title></circle>"
        )
    end_color = "var(--critical)" if regressed else "var(--series)"
    px, py = pts[-1]
    parts.append(
        f'<circle cx="{px}" cy="{py}" r="6" fill="var(--surface)"/>'
        f'<circle cx="{px}" cy="{py}" r="4" fill="{end_color}"/>'
    )
    parts.append(
        f'<text x="{left}" y="{h - 4}">run 1</text>'
        f'<text x="{w - right}" y="{h - 4}" text-anchor="end">'
        f"run {len(values)}</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def trend_dashboard_html(report, entries: Sequence[Mapping]) -> str:
    """Render the fleet dashboard: a self-contained static HTML page.

    ``report`` is a :class:`repro.obs.trend.TrendReport`; ``entries``
    the time-ordered ledger entries it was computed from.  Sections:
    headline stat tiles, regression callouts, the engine-tier breakdown,
    and one trend card per metric :func:`repro.obs.compare.reported`
    names or that regressed, with an inline SVG chart and a collapsible
    value table.  Pure function of its inputs — no timestamps, no
    randomness — so the page is byte-identical across renders of the
    same ledger.
    """
    esc = _html.escape
    n_reg = len(report.regressions)
    engines: dict = {}
    for entry in entries:
        for eng in entry.get("engines") or ():
            doc = engines.setdefault(eng, {"runs": 0, "latest": 0.0, "best": 0.0})
            doc["runs"] += 1
            cps = (entry.get("metrics") or {}).get(
                f"gauge/netsim.cycles_per_sec/{eng}"
            )
            if cps:
                doc["latest"] = float(cps)
                doc["best"] = max(doc["best"], float(cps))

    out = _page(
        "run ledger dashboard",
        "Run ledger — trend observatory",
        "Cross-run metric trends from the persistent run ledger; series "
        "are per host and engine tier, and regressions gate against the "
        "window median and sustained changepoints.",
    )
    out.append(_tiles([
        ("Ledger entries", str(report.n_entries), ""),
        ("Series", str(report.n_series), ""),
        ("Trend regressions", str(n_reg), "bad" if n_reg else "ok"),
        ("Engine tiers", str(len(engines)), ""),
    ]))

    if report.regressions:
        out.append("<h2>Callouts</h2>")
        for t in report.regressions:
            delta = 100.0 * (t.ratio - 1.0) if t.baseline > 0 else float("inf")
            note = f" ({esc(t.note)})" if t.note else ""
            out.append(
                f'<div class="callout"><span class="tag">⚠ REGRESSION</span> '
                f"{esc(t.label)} · {esc(t.metric)}: latest {_fmt(t.latest)} "
                f"vs baseline {_fmt(t.baseline)} ({delta:+.1f}%){note}</div>"
            )

    if engines:
        out.append("<h2>Engine tiers</h2>")
        out.append(
            "<table><tr><th>engine</th><th>runs recorded</th>"
            "<th>latest cycles/s</th><th>best cycles/s</th></tr>"
        )
        for eng in sorted(engines):
            doc = engines[eng]
            out.append(
                f"<tr><td>{esc(eng)}</td><td>{doc['runs']}</td>"
                f"<td>{_fmt(doc['latest'])}</td>"
                f"<td>{_fmt(doc['best'])}</td></tr>"
            )
        out.append("</table>")

    cards = [t for t in report.trends if t.regression or reported(t.metric)]
    out.append("<h2>Metric trends</h2>")
    if not cards:
        out.append('<p class="sub">No trendable metrics in the ledger.</p>')
    out.append('<div class="cards">')
    for t in cards:
        delta = 100.0 * (t.ratio - 1.0) if t.baseline > 0 else float("inf")
        tag = (
            '<span class="bad">REGRESSION</span> · ' if t.regression else ""
        )
        note = f" · {esc(t.note)}" if t.note else ""
        rows = "".join(
            f"<tr><td>{i + 1}</td><td>{_fmt(v)}</td></tr>"
            for i, v in enumerate(t.values)
        )
        out.append(
            '<div class="card">'
            f'<div class="name">{esc(t.metric)}</div>'
            f'<div class="where">{esc(t.label)} · {len(t.values)} runs</div>'
            f"{_trend_svg(t.values, regressed=t.regression)}"
            f'<div class="delta">{tag}baseline {_fmt(t.baseline)} · '
            f"latest {_fmt(t.latest)} ({delta:+.1f}%){note}</div>"
            f"<details><summary>values</summary><table>"
            f"<tr><th>run</th><th>value</th></tr>{rows}</table></details>"
            "</div>"
        )
    out.append("</div>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


# -------------------------------------------------- forensics deep dive
def _heat_svg(
    rows: Sequence[Sequence[float]],
    labels: Sequence[str],
    *,
    hue: str = "var(--series)",
    unit: str = "flits",
    max_cols: int = 128,
) -> str:
    """A links-by-windows heatmap as inline SVG (one shared scale).

    Cell opacity encodes the value (quantized, deterministic); empty
    cells are zero.  NaN values (gaps in a latency strip) render as
    hollow outline cells.  Long runs max-pool into ``max_cols`` bins.
    Native ``<title>`` tooltips carry the exact numbers.
    """
    grid = [[float(v) for v in r] for r in rows]
    n_cols = len(grid[0]) if grid else 0
    binned = False
    if n_cols > max_cols:
        import numpy as _np

        idx_bins = _np.array_split(_np.arange(n_cols), max_cols)
        grid = [
            [
                float(_np.nanmax(_np.asarray(r)[b]))
                if not _np.all(_np.isnan(_np.asarray(r)[b]))
                else float("nan")
                for b in idx_bins
            ]
            for r in grid
        ]
        n_cols = max_cols
        binned = True
    finite = [v for r in grid for v in r if v == v]
    hi = max(finite) if finite else 0.0
    label_w, rh, gap = 96, 14, 2
    cw = round(520.0 / max(1, n_cols), 3)
    w = label_w + 524
    h = (rh + gap) * len(grid) + 16
    parts = [
        f'<svg viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="heatmap over {n_cols} windows">'
    ]
    for i, (label, row) in enumerate(zip(labels, grid)):
        y = i * (rh + gap)
        parts.append(
            f'<text x="{label_w - 6}" y="{y + rh - 3}" text-anchor="end">'
            f"{_html.escape(str(label))}</text>"
        )
        for j, v in enumerate(row):
            x = round(label_w + j * cw, 3)
            tip = (
                f"{label} · window {j}: "
                + ("no data" if v != v else f"{_fmt(v)} {unit}")
            )
            if v != v:  # NaN gap
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{round(cw, 3)}" '
                    f'height="{rh}" fill="none" stroke="var(--grid)" '
                    f'stroke-width="0.5"><title>{_html.escape(tip)}</title>'
                    "</rect>"
                )
                continue
            op = 0.0 if v == 0 or hi == 0 else round(0.12 + 0.88 * v / hi, 3)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{round(cw, 3)}" '
                f'height="{rh}" fill="{hue}" fill-opacity="{op}">'
                f"<title>{_html.escape(tip)}</title></rect>"
            )
    foot = f"window 0..{n_cols - 1}"
    if binned:
        foot += " (max-pooled)"
    parts.append(
        f'<text x="{label_w}" y="{h - 3}">{foot} · scale 0..{_fmt(hi)} '
        f"{_html.escape(unit)}</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _tree_html(node: Mapping) -> str:
    """Nested list rendering of a backpressure tree node."""
    esc = _html.escape
    label = (
        f"<strong>{esc(str(node['label']))}</strong> — "
        f"{int(node['credit_stalls'])} stalls "
        f"({100.0 * float(node['share']):.1f}%), "
        f"peak occupancy {int(node['peak_occupancy'])}"
    )
    children = node.get("children") or ()
    if not children:
        return f"<li>{label}</li>"
    inner = "".join(_tree_html(c) for c in children)
    return f"<li>{label}<ul>{inner}</ul></li>"


def forensics_html(docs: Sequence[Mapping]) -> str:
    """Render the per-run congestion deep dive as self-contained HTML.

    ``docs`` is a sequence of documents from
    :func:`repro.obs.forensics.deep_dive_docs` (one per link-state
    artifact).  Sections per run: headline tiles, the link-by-window
    forwarded heatmap, the credit-stall heatmap, the backpressure tree
    callout, the per-window latency strip (when a matching time series
    was recorded), the stall ranking table, and traced path
    attribution.  Pure function of its inputs — no timestamps, no
    randomness — so the page is byte-identical across renders.
    """
    esc = _html.escape
    out = _page(
        "congestion deep dive",
        "Congestion forensics — per-run deep dive",
        "Dense link-state telemetry: where the flits went, where the "
        "credit stalls piled up, and which upstream links the "
        "backpressure wave reached.",
    )
    for doc in docs:
        out.append(f"<h2>{esc(str(doc['name']))}</h2>")
        out.append(_tiles([
            ("Runs", str(int(doc["n_runs"]))),
            ("Windows", str(int(doc["n_windows"]))),
            ("Window cycles", str(int(doc["window"]))),
            ("Links", str(int(doc["n_links"]))),
        ]))
        for run in doc["runs"]:
            out.append(
                f"<h2>run {int(run['run'])} · {esc(str(run['label']))}</h2>"
            )
            onset = run.get("onset")
            stall_cls = "bad" if run["stall_total"] else "ok"
            out.append(_tiles([
                ("Windows", str(int(run["n_windows"])), ""),
                ("Flits forwarded", _fmt(float(run["forwarded_total"])), ""),
                ("Credit stalls", _fmt(float(run["stall_total"])), stall_cls),
                ("Peak occupancy", str(int(run["peak_max"])), ""),
            ]))
            if onset is not None:
                out.append(
                    f'<div class="callout"><span class="tag">congestion '
                    f"onset</span> window {int(onset['onset_window'])} "
                    f"(cycle {int(onset['onset_cycle'])}) — sustained "
                    f"stall plateau {onset['plateau']:.1f}/window</div>"
                )
            tree = run.get("tree")
            if tree is not None:
                out.append(
                    '<div class="callout"><span class="tag">backpressure '
                    "tree</span> saturated link and the upstream stall "
                    f"wave:<ul>{_tree_html(tree)}</ul></div>"
                )
            if run["heat_rows"]:
                out.append(
                    '<div class="card"><div class="name">flits forwarded '
                    "per window</div>"
                    + _heat_svg(
                        run["heat_rows"], run["heat_labels"], unit="flits"
                    )
                    + "</div>"
                )
                out.append(
                    '<div class="card"><div class="name">credit stalls '
                    "per window</div>"
                    + _heat_svg(
                        run["stall_rows"],
                        run["heat_labels"],
                        hue="var(--critical)",
                        unit="stalls",
                    )
                    + "</div>"
                )
            latency = run.get("latency")
            if latency:
                out.append(
                    '<div class="card"><div class="name">mean packet '
                    "latency per window (cycles)</div>"
                    + _heat_svg([latency], ["latency"], unit="cycles")
                    + "</div>"
                )
            ranked = run.get("ranked") or ()
            if ranked:
                out.append(
                    "<details><summary>credit-stall ranking</summary>"
                    "<table><tr><th>link</th><th>endpoints</th>"
                    "<th>stalls</th><th>share</th><th>forwarded</th>"
                    "<th>peak occ</th></tr>"
                    + "".join(
                        f"<tr><td>#{int(e['link'])}</td>"
                        f"<td>{esc(str(e['label']))}</td>"
                        f"<td>{int(e['credit_stalls'])}</td>"
                        f"<td>{100.0 * float(e['share']):.1f}%</td>"
                        f"<td>{int(e['forwarded'])}</td>"
                        f"<td>{int(e['peak_occupancy'])}</td></tr>"
                        for e in ranked
                    )
                    + "</table></details>"
                )
            # Ranked links no traced packet crossed stay out of the page.
            for hp in run.get("hot_paths") or ():
                if not hp["packets"]:
                    continue
                parts = ", ".join(
                    f"{esc(str(p['series']))} path#{int(p['path_index'])}: "
                    f"{int(p['count'])}"
                    for p in hp["paths"]
                )
                out.append(
                    f'<p class="sub">{esc(str(hp["label"]))}: '
                    f"{int(hp['packets'])} traced crossings — {parts}</p>"
                )
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def flowstats_html(docs: Sequence[Mapping]) -> str:
    """Render the flow-level SLO observatory as self-contained HTML.

    ``docs`` is a sequence of documents from
    :func:`repro.obs.fairness.flow_docs` (one per flowstats artifact).
    Sections per run: fairness tiles (Jain index, median/worst p99,
    spread), victim-pair callouts joined with the link-state stall
    attribution, the source-by-destination p99 heatmap, and the
    worst-pair digest table.  Pure function of its inputs — no
    timestamps, no randomness — so the page is byte-identical across
    renders.
    """
    esc = _html.escape
    out = _page(
        "flow-level SLOs",
        "Flow-level SLO observatory",
        "Per-(src,dst)-pair latency digests: who paid for the good "
        "average — fairness indices, tail spread, and the victim flows a "
        "mean-only comparison hides.",
    )
    for doc in docs:
        out.append(f"<h2>{esc(str(doc['name']))}</h2>")
        out.append(_tiles([
            ("Runs", str(int(doc["n_runs"]))),
            ("Hosts", str(int(doc["n_hosts"]))),
            ("Pairs", str(int(doc["n_pairs"]))),
            ("Histogram bins", str(int(doc["n_bins"]))),
        ]))
        for run in doc["runs"]:
            out.append(
                f"<h2>run {int(run['run'])} · {esc(str(run['label']))}</h2>"
            )
            victim_cls = "bad" if run["victims"] else "ok"
            out.append(_tiles([
                ("Active pairs", str(int(run["pairs_active"])), ""),
                ("Delivered", _fmt(float(run["delivered"])), ""),
                ("Jain index", _fmt(float(run["jain"])), ""),
                ("p99 median", _fmt(float(run["median_p99"])), ""),
                ("p99 spread", _fmt(float(run["spread"])), ""),
                ("Victim pairs", str(int(run["victim_total"])), victim_cls),
            ]))
            attribution = {
                int(a["pair"]): a for a in run.get("attribution") or ()
            }
            for v in run["victims"]:
                line = (
                    f'<div class="callout"><span class="tag">victim '
                    f"flow</span> {esc(str(v['label']))} — p99 "
                    f"{_fmt(float(v['p99']))} cycles "
                    f"({v['ratio']:.2f}&times; the run median, threshold "
                    f"{run['k']:g}&times;), {int(v['delivered'])} delivered"
                )
                a = attribution.get(int(v["pair"]))
                if a is not None:
                    line += (
                        f" · {int(a['injection_stalls'])} injection stalls"
                    )
                    if a.get("suspect") is not None:
                        s = a["suspect"]
                        line += (
                            f" · top stalled link {esc(str(s['label']))} "
                            f"({100.0 * float(s['share']):.1f}% of stalls)"
                        )
                out.append(line + "</div>")
            if run["heat_rows"]:
                out.append(
                    '<div class="card"><div class="name">pair p99 latency '
                    "by destination host (hottest source hosts)</div>"
                    + _heat_svg(
                        run["heat_rows"],
                        run["heat_labels"],
                        hue="var(--critical)",
                        unit="cycles",
                    )
                    + "</div>"
                )
            worst = run.get("worst_rows") or ()
            if worst:
                out.append(
                    "<details><summary>worst flows by p99</summary>"
                    "<table><tr><th>pair</th><th>delivered</th>"
                    "<th>mean</th><th>p50</th><th>p99</th><th>max</th></tr>"
                    + "".join(
                        f"<tr><td>{esc(str(e['label']))}</td>"
                        f"<td>{int(e['delivered'])}</td>"
                        f"<td>{_fmt(float(e['mean']))}</td>"
                        f"<td>{_fmt(float(e['p50']))}</td>"
                        f"<td>{_fmt(float(e['p99']))}</td>"
                        f"<td>{int(e['max'])}</td></tr>"
                        for e in worst
                    )
                    + "</table></details>"
                )
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def save_result(result: ExperimentResult, path: str | Path) -> Path:
    """Write a result to ``path``; format chosen by suffix (.json/.csv/.txt)."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(result_to_json(result))
    elif path.suffix == ".csv":
        path.write_text(result_to_csv(result))
    elif path.suffix == ".txt":
        path.write_text(result.to_text() + "\n")
    else:
        raise ConfigurationError(
            f"unsupported export suffix {path.suffix!r}; use .json, .csv or .txt"
        )
    return path
