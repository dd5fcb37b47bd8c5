"""Congestion forensics: causal analyses over dense link-state telemetry.

:mod:`repro.obs.linkstate` records *what* every directed link did per
window; this module answers *why a run got slow*, joining that record
with the packet flight recorder and the path cache's route tables:

- :func:`rank_stalled_links` — which links absorbed the credit stalls
  (the congestion heat ranking);
- :func:`congestion_tree` — causal backpressure attribution: starting
  from a saturated link, walk the stall wave upstream (a stall charged
  to link ``u -> v`` fills buffers at ``u``, which stalls the links
  feeding ``u``) into a tree rooted at the congestion source;
- :func:`link_path_attribution` — which mechanisms' path indices and
  switch pairs loaded each link (dynamic, from traced routes);
- :func:`static_link_paths` — which precomputed path indices *could*
  load each link (static, from a :class:`~repro.core.cache.PathCache`);
- :func:`congestion_onset` — when stalls became sustained, reusing the
  steady-state moving-window test of
  :func:`repro.obs.timeseries.detect_convergence`.

:func:`deep_dive_docs` is the one analysis of a snapshot: it runs the
above once per run and keeps the results as a plain-data document, which
:func:`forensics_report` renders as ASCII (:mod:`repro.report.ascii`
heatmaps and attribution tables) and
:func:`repro.report.export.forensics_html` as a self-contained page.

The CLI (``python -m repro.experiments inspect <telemetry-dir>``) walks
a telemetry directory, pairs every ``*.linkstate.npz`` with its sibling
trace / time-series artifacts, prints the ASCII deep dive and, with
``--html``, writes the HTML report; the ``flows`` CLI of
:mod:`repro.obs.fairness` runs through the same CLI body.  All outputs
are pure functions of the artifacts — byte-deterministic across
processes.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import layers
from repro.obs.linkstate import LINKSTATE_FORMAT, MATRIX_COLS, load_linkstate
from repro.obs.timeseries import detect_convergence, load_timeseries, run_series
from repro.obs.trace import load_trace

__all__ = [
    "link_label",
    "run_label",
    "match_run",
    "run_windows",
    "rank_stalled_links",
    "congestion_tree",
    "congestion_onset",
    "link_path_attribution",
    "static_link_paths",
    "forensics_report",
    "deep_dive_docs",
    "main",
]


# ------------------------------------------------------------- labelling
def link_label(src: int, dst: int) -> str:
    """Human label of a directed link; hosts are ``-1 - host`` encoded."""

    def ep(v: int) -> str:
        return f"s{v}" if v >= 0 else f"h{-1 - v}"

    return f"{ep(int(src))}->{ep(int(dst))}"


def run_label(snap: Mapping, run: int) -> str:
    """``scheme/mechanism @ rate`` label of run ``run`` of a snapshot."""
    runs = snap.get("runs", [])
    if not 0 <= run < len(runs):
        return f"run{run}"
    meta = runs[run]
    label = f"{meta.get('scheme', '?')}/{meta.get('mechanism', '?')}"
    rate = meta.get("rate")
    return f"{label} @ {rate:g}" if isinstance(rate, (int, float)) else label


def match_run(snap: Mapping, run: int, other: Mapping) -> Optional[int]:
    """The run of ``other`` (another artifact of the same experiment)
    matching run ``run`` of ``snap``.

    Positional match when both snapshots recorded the same run sequence
    (meta agrees on scheme/mechanism/rate); otherwise the unique run of
    ``other`` with matching metadata, or ``None``.
    """
    meta = snap.get("runs", [])[run]
    others = other.get("runs", [])
    keys = ("scheme", "mechanism", "rate")
    if len(others) == len(snap.get("runs", [])) and 0 <= run < len(others):
        if all(others[run].get(c) == meta.get(c) for c in keys):
            return run
    hits = [
        i
        for i, m in enumerate(others)
        if all(m.get(c) == meta.get(c) for c in keys)
    ]
    return hits[0] if len(hits) == 1 else None


def _check(snap: Mapping) -> None:
    if snap.get("format") != LINKSTATE_FORMAT:
        raise ConfigurationError(
            f"not a {LINKSTATE_FORMAT} snapshot (format={snap.get('format')!r})"
        )


# -------------------------------------------------------------- raw views
def run_windows(snap: Mapping, run: int) -> Dict[str, np.ndarray]:
    """One run's window rows in index order.

    Returns ``start`` / ``cycles`` vectors plus the three dense matrices
    (``forwarded``, ``credit_stalls``, ``peak_occupancy``), each shaped
    ``(run windows, n_links)``.
    """
    _check(snap)
    mask = np.asarray(snap["ls_run"], dtype=np.int64) == run
    order = np.argsort(np.asarray(snap["ls_index"], dtype=np.int64)[mask])
    out = {
        "start": np.asarray(snap["ls_start"], dtype=np.int64)[mask][order],
        "cycles": np.asarray(snap["ls_cycles"], dtype=np.int64)[mask][order],
    }
    for c in MATRIX_COLS:
        out[c] = np.asarray(snap[f"ls_{c}"], dtype=np.int64)[mask][order]
    return out


def _totals(snap: Mapping, run: Optional[int]) -> Dict[str, np.ndarray]:
    """Per-link totals (max for peak) over one run or the whole snapshot."""
    _check(snap)
    if run is None:
        mats = {c: np.asarray(snap[f"ls_{c}"], dtype=np.int64) for c in MATRIX_COLS}
    else:
        mats = run_windows(snap, run)
    n_links = int(snap["n_links"])
    out = {}
    for c in MATRIX_COLS:
        m = mats[c]
        if not m.size:
            out[c] = np.zeros(n_links, dtype=np.int64)
        elif c == "peak_occupancy":
            out[c] = m.max(axis=0)
        else:
            out[c] = m.sum(axis=0)
    return out


# ------------------------------------------------------- stall attribution
def rank_stalled_links(
    snap: Mapping, run: Optional[int] = None, *, top: int = 10
) -> List[dict]:
    """The ``top`` links ranked by credit-stall contribution, descending.

    Each entry carries the link id, its endpoints and label, the stall
    total, its share of all stalls, and the link's forwarded-flit total
    and peak VC occupancy over the same windows.  Ties break on link id,
    so the ranking is deterministic.
    """
    totals = _totals(snap, run)
    stalls = totals["credit_stalls"]
    grand = int(stalls.sum())
    order = np.lexsort((np.arange(len(stalls)), -stalls))[: max(0, top)]
    src = np.asarray(snap["link_src"], dtype=np.int64)
    dst = np.asarray(snap["link_dst"], dtype=np.int64)
    out = []
    for lid in order.tolist():
        n = int(stalls[lid])
        if n == 0:
            break
        out.append(
            {
                "link": lid,
                "src": int(src[lid]),
                "dst": int(dst[lid]),
                "label": link_label(src[lid], dst[lid]),
                "credit_stalls": n,
                "share": n / grand if grand else 0.0,
                "forwarded": int(totals["forwarded"][lid]),
                "peak_occupancy": int(totals["peak_occupancy"][lid]),
            }
        )
    return out


def congestion_tree(
    snap: Mapping,
    run: Optional[int] = None,
    *,
    root: Optional[int] = None,
    min_stalls: int = 1,
    max_depth: int = 4,
    max_children: int = 4,
) -> Optional[dict]:
    """Backpressure tree rooted at a saturated link, walking upstream.

    A credit stall charged to link ``u -> v`` means a head-of-line packet
    at ``u`` found the downstream buffers on ``v`` full; those waiting
    packets in turn fill ``u``'s buffers and stall the links feeding
    ``u``.  Each node's children are the stalled links whose destination
    is the node's source switch — the wave front one hop further
    upstream.  The default ``root`` is the most-stalled link that
    *originates at a switch*: at saturation the raw stall maximum is
    usually an injection link — the symptom at the network edge, with
    nothing upstream of its source queue — while the congested core
    sits on a switch link; when no switch-sourced link stalled, the
    edge maximum is the whole story and becomes the root.  Children are
    ordered by stall count (ties on link id) and capped at
    ``max_children``; every link appears at most once, so the walk
    terminates on cyclic topologies.  Returns ``None`` when nothing
    stalled.
    """
    totals = _totals(snap, run)
    stalls = totals["credit_stalls"]
    src = np.asarray(snap["link_src"], dtype=np.int64)
    dst = np.asarray(snap["link_dst"], dtype=np.int64)
    if root is None:
        from_switch = np.where(src >= 0, stalls, 0)
        root = (
            int(from_switch.argmax())
            if int(from_switch.max(initial=0)) > 0
            else int(stalls.argmax())
        )
    if stalls[root] < max(1, min_stalls):
        return None
    grand = int(stalls.sum())
    by_dst: Dict[int, List[int]] = {}
    for lid in range(len(src)):
        by_dst.setdefault(int(dst[lid]), []).append(lid)
    visited = {int(root)}

    def build(lid: int, depth: int) -> dict:
        node = {
            "link": int(lid),
            "src": int(src[lid]),
            "dst": int(dst[lid]),
            "label": link_label(src[lid], dst[lid]),
            "credit_stalls": int(stalls[lid]),
            "share": int(stalls[lid]) / grand if grand else 0.0,
            "forwarded": int(totals["forwarded"][lid]),
            "peak_occupancy": int(totals["peak_occupancy"][lid]),
            "children": [],
        }
        # Injection links start at a host: there is nothing upstream of a
        # source queue, so the walk bottoms out there.
        if depth < max_depth and node["src"] >= 0:
            kids = [
                m
                for m in by_dst.get(node["src"], ())
                if m not in visited and stalls[m] >= min_stalls
            ]
            kids.sort(key=lambda m: (-int(stalls[m]), m))
            kids = kids[:max_children]
            visited.update(kids)
            node["children"] = [build(m, depth + 1) for m in kids]
        return node

    return build(int(root), 0)


def congestion_onset(
    snap: Mapping,
    run: int,
    *,
    check_windows: int = 4,
    rel_tol: float = 0.05,
) -> Optional[dict]:
    """When run ``run``'s credit stalls became sustained, or ``None``.

    Reuses the steady-state moving-window test: the per-window total
    stall series is fed to
    :func:`repro.obs.timeseries.detect_convergence`; the converged tail
    gives the stall plateau, and the onset is the first window whose
    stall count reaches half that plateau.  Returns ``None`` for runs
    that never stalled (no congestion to date).
    """
    w = run_windows(snap, run)
    series = w["credit_stalls"].sum(axis=1).astype(np.float64)
    if not series.size or float(series.sum()) <= 0.0:
        return None
    converged_at = detect_convergence(
        [series.tolist()], check_windows, rel_tol
    )
    m = int(check_windows)
    tail = (
        series[converged_at - m : converged_at]
        if converged_at is not None
        else series[-min(m, len(series)):]
    )
    plateau = float(tail.mean())
    if plateau <= 0.0:
        # Stalls died back down to nothing: a transient, not congestion.
        return None
    threshold = 0.5 * plateau
    onset = int(np.argmax(series >= threshold))
    return {
        "run": int(run),
        "onset_window": onset,
        "onset_cycle": int(w["start"][onset]),
        "plateau": plateau,
        "threshold": threshold,
        "converged_at": converged_at,
        "n_windows": int(len(series)),
    }


# --------------------------------------------------- path/pair attribution
def _pair_links(snap: Mapping) -> Dict[Tuple[int, int], int]:
    """Endpoint pair ``(src, dst)`` -> link id, from the snapshot tables."""
    src = np.asarray(snap["link_src"], dtype=np.int64)
    dst = np.asarray(snap["link_dst"], dtype=np.int64)
    return {
        (int(u), int(v)): lid
        for lid, (u, v) in enumerate(zip(src.tolist(), dst.tolist()))
    }


def link_path_attribution(snap: Mapping, trace: Mapping) -> Dict[int, dict]:
    """Which traced traffic loaded each link: dynamic route attribution.

    Joins the link-state snapshot's endpoint tables with a flight
    recorder snapshot: every launched traced packet contributes its
    injection link, the switch links along its recorded route, and its
    ejection link.  Returns ``{link id: {"packets", "paths", "pairs"}}``
    where ``paths`` counts ``(scheme/mechanism label, path index)``
    choices and ``pairs`` counts ``(source switch, destination switch)``
    demands.  Only links that carried traced traffic appear.
    """
    _check(snap)
    if trace.get("format") != "repro-trace-v1":
        raise ConfigurationError(
            f"not a repro-trace-v1 snapshot (format={trace.get('format')!r})"
        )
    pair_of = _pair_links(snap)
    runs = list(trace.get("runs", []))
    pk = {
        c: np.asarray(trace[f"pk_{c}"], dtype=np.int64)
        for c in ("run", "src", "dst", "src_sw", "dst_sw", "path_index", "t_launch")
    }
    route = np.asarray(trace["pk_route"], dtype=np.int64)
    out: Dict[int, dict] = {}

    def bump(lid: int, key: Tuple[str, int], pair: Tuple[int, int]) -> None:
        doc = out.setdefault(lid, {"packets": 0, "paths": {}, "pairs": {}})
        doc["packets"] += 1
        doc["paths"][key] = doc["paths"].get(key, 0) + 1
        doc["pairs"][pair] = doc["pairs"].get(pair, 0) + 1

    for i in np.flatnonzero(pk["t_launch"] >= 0):
        run = int(pk["run"][i])
        meta = runs[run] if 0 <= run < len(runs) else {}
        label = f"{meta.get('scheme', '?')}/{meta.get('mechanism', '?')}"
        key = (label, int(pk["path_index"][i]))
        pair = (int(pk["src_sw"][i]), int(pk["dst_sw"][i]))
        row = route[i]
        hops = [int(x) for x in row[row >= 0]]
        links = [(-1 - int(pk["src"][i]), pair[0])]
        links += list(zip(hops, hops[1:]))
        links.append((pair[1], -1 - int(pk["dst"][i])))
        for uv in links:
            lid = pair_of.get(uv)
            if lid is not None:
                bump(lid, key, pair)
    return out


def static_link_paths(
    snap: Mapping, cache
) -> Dict[int, List[Tuple[int, int, int]]]:
    """Which precomputed path indices cross each switch link (static).

    Walks every cached pair of a :class:`~repro.core.cache.PathCache`
    (its CSR route-table source) and marks, per link id, the
    ``(source switch, destination switch, path index)`` triples whose
    path contains the link.  The dynamic complement of
    :func:`link_path_attribution`: this is what *could* load a link,
    that is what *did*.
    """
    _check(snap)
    pair_of = _pair_links(snap)
    out: Dict[int, List[Tuple[int, int, int]]] = {}
    for (s, d), ps in sorted(cache.export_state().items()):
        for idx in range(ps.k):
            nodes = ps[idx].nodes
            for u, v in zip(nodes, nodes[1:]):
                lid = pair_of.get((int(u), int(v)))
                if lid is not None:
                    out.setdefault(lid, []).append((int(s), int(d), idx))
    return out


# ----------------------------------------------------------- the document
def deep_dive_docs(
    snap: Mapping,
    *,
    name: str = "linkstate",
    trace: Optional[Mapping] = None,
    timeseries: Optional[Mapping] = None,
    top: int = 8,
    depth: int = 3,
) -> dict:
    """Analyse one snapshot once, into the plain-data deep-dive document.

    Per run: window totals, the ``top`` stall ranking, the backpressure
    tree (``depth`` levels), the congestion onset, the hottest links'
    window rows, the latency strip of the matching time-series run, and
    (with a trace) the traced path attribution of the three most-stalled
    links — ``packets: 0`` when no traced packet crossed one.  Both
    :func:`forensics_report` and :func:`repro.report.export.forensics_html`
    render this document; it is JSON-able plain structures.
    """
    _check(snap)
    src = np.asarray(snap["link_src"], dtype=np.int64)
    dst = np.asarray(snap["link_dst"], dtype=np.int64)
    attribution = (
        link_path_attribution(snap, trace) if trace is not None else None
    )
    runs = []
    for r in range(int(snap["n_runs"])):
        w = run_windows(snap, r)
        fwd, stl = w["forwarded"], w["credit_stalls"]
        per_link = fwd.sum(axis=0) if fwd.size else np.zeros(0, dtype=np.int64)
        hot = np.lexsort((np.arange(len(per_link)), -per_link))[:top]
        hot = [int(h) for h in hot if per_link[h] > 0]
        ranked = rank_stalled_links(snap, r, top=top)
        hot_paths = []
        if attribution is not None:
            for entry in ranked[:3]:
                hit = attribution.get(entry["link"], {"packets": 0, "paths": {}})
                paths = sorted(
                    hit["paths"].items(), key=lambda kv: (-kv[1], kv[0])
                )[:4]
                hot_paths.append(
                    {
                        "label": entry["label"],
                        "packets": hit["packets"],
                        "paths": [
                            {"series": lab, "path_index": idx, "count": n}
                            for (lab, idx), n in paths
                        ],
                    }
                )
        ts_run = match_run(snap, r, timeseries) if timeseries is not None else None
        runs.append(
            {
                "run": r,
                "label": run_label(snap, r),
                "meta": dict(snap["runs"][r]),
                "n_windows": int(len(w["start"])),
                "starts": w["start"].tolist(),
                "forwarded_total": int(fwd.sum()),
                "stall_total": int(stl.sum()),
                "peak_max": int(w["peak_occupancy"].max(initial=0)),
                "heat_labels": [link_label(src[h], dst[h]) for h in hot],
                "heat_rows": [fwd[:, h].tolist() for h in hot],
                "stall_rows": [stl[:, h].tolist() for h in hot],
                "ranked": ranked,
                "tree": congestion_tree(snap, r, max_depth=depth),
                "onset": congestion_onset(snap, r),
                "latency": (
                    [float(v) for v in run_series(timeseries, ts_run)["latency"]]
                    if ts_run is not None
                    else None
                ),
                "hot_paths": hot_paths,
            }
        )
    return {
        "name": name,
        "n_runs": int(snap["n_runs"]),
        "window": int(snap["window"]),
        "n_links": int(snap["n_links"]),
        "n_windows": int(snap["n_windows"]),
        "runs": runs,
    }


def _select(doc: Mapping, run: Optional[int]) -> Mapping:
    """``doc`` narrowed to run ``run`` (``None`` keeps every run)."""
    if run is None:
        return doc
    if not 0 <= run < doc["n_runs"]:
        raise ConfigurationError(
            f"run {run} out of range (snapshot has {doc['n_runs']} runs)"
        )
    return dict(doc, runs=[doc["runs"][run]])


# ----------------------------------------------------------- ASCII report
def forensics_report(
    snap: Mapping,
    *,
    trace: Optional[Mapping] = None,
    timeseries: Optional[Mapping] = None,
    run: Optional[int] = None,
    top: int = 8,
    depth: int = 3,
    title: str = "congestion forensics",
) -> str:
    """The full ASCII deep dive of one link-state snapshot.

    Per run: the window summary line, the credit-stall ranking table,
    the backpressure tree, the link-by-window forwarded-flits heatmap,
    and (with a trace snapshot) the hot-link path attribution.  Renders
    the :func:`deep_dive_docs` document — byte-deterministic.
    """
    doc = deep_dive_docs(
        snap, trace=trace, timeseries=timeseries, top=top, depth=depth
    )
    return _text(_select(doc, run), title)


def _text(doc: Mapping, title: str) -> str:
    """Render a :func:`deep_dive_docs` document as the ASCII deep dive."""
    from repro.report.ascii import (
        congestion_tree_text,
        linkstate_heatmap,
        stall_attribution_table,
    )

    lines = [
        f"{title}: {doc['n_runs']} run(s), {doc['n_windows']} window(s) of "
        f"{doc['window']} cycles, {doc['n_links']} links"
    ]
    for run in doc["runs"]:
        lines += [
            "",
            f"== run {run['run']}: {run['label']} — {run['n_windows']} "
            f"windows, {run['forwarded_total']} flits forwarded, "
            f"{run['stall_total']} credit stalls, "
            f"peak occupancy {run['peak_max']}",
        ]
        onset = run["onset"]
        if onset is not None:
            conv = (
                f"converged at window {onset['converged_at']}"
                if onset["converged_at"] is not None
                else "never converged"
            )
            lines.append(
                f"   congestion onset: window {onset['onset_window']} "
                f"(cycle {onset['onset_cycle']}) — stall plateau "
                f"{onset['plateau']:.1f}/window, {conv}"
            )
        else:
            lines.append("   congestion onset: none (no sustained stalls)")
        lines.append("")
        if run["ranked"]:
            lines.append(stall_attribution_table(run["ranked"]))
            if run["tree"] is not None:
                lines += ["", congestion_tree_text(run["tree"])]
        else:
            lines.append("   no credit stalls recorded")
        if run["heat_rows"]:
            lines += [
                "",
                linkstate_heatmap(
                    run["heat_rows"],
                    run["heat_labels"],
                    title=f"   flits forwarded per {doc['window']}"
                    "-cycle window (hottest links)",
                ),
            ]
        if run["hot_paths"]:
            lines += ["", "   hot-link path attribution (traced packets):"]
        for hp in run["hot_paths"]:
            if not hp["packets"]:
                lines.append(f"     {hp['label']}: no traced packets crossed it")
                continue
            parts = ", ".join(
                f"{p['series']} path#{p['path_index']}: {p['count']}"
                for p in hp["paths"]
            )
            lines.append(
                f"     {hp['label']}: {hp['packets']} traced "
                f"crossings — {parts}"
            )
    return "\n".join(lines)


# ------------------------------------------------------------------- CLI
def main(argv=None) -> int:
    """``inspect`` entry point (``python -m repro.experiments inspect``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments inspect",
        description="Congestion forensics over recorded link-state "
        "telemetry: stall attribution, backpressure trees, heatmaps and "
        "an optional self-contained HTML deep dive.",
    )
    parser.add_argument(
        "path",
        help="telemetry directory (every *.linkstate.npz in it) or one "
        ".linkstate.npz file",
    )
    parser.add_argument(
        "--run", type=int, default=None, metavar="N",
        help="inspect only run N of each snapshot (default: all runs)",
    )
    parser.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="links per ranking/heatmap (default: 8)",
    )
    parser.add_argument(
        "--depth", type=int, default=3, metavar="D",
        help="backpressure-tree depth (default: 3)",
    )
    parser.add_argument(
        "--html", default=None, metavar="OUT",
        help="also write the self-contained HTML deep dive to OUT",
    )
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be >= 1")
    if args.depth < 0:
        parser.error("--depth must be >= 0")
    from repro.report.export import forensics_html

    def build(path: Path, stem: str) -> dict:
        return deep_dive_docs(
            load_linkstate(path),
            name=stem,
            trace=_sibling(path, stem, "trace", load_trace),
            timeseries=_sibling(path, stem, "timeseries", load_timeseries),
            top=args.top,
            depth=args.depth,
        )

    return _cli(
        args, prog="inspect", layer="linkstate", build=build,
        text=lambda doc: _text(doc, f"congestion forensics [{doc['name']}]"),
        html=forensics_html, tag="deep dive",
    )


def _cli(
    args: argparse.Namespace,
    *,
    prog: str,
    layer: str,
    build: Callable[[Path, str], dict],
    text: Callable[[Mapping], str],
    html: Callable[[Sequence[Mapping]], str],
    tag: str,
) -> int:
    """The body the ``inspect`` and ``flows`` CLIs share.

    Walks ``args.path`` for ``layer``'s artifacts (named by
    :func:`repro.obs.layers.artifact_name`), builds each one's
    document once with ``build(path, stem)``, prints its ``text``
    rendering (narrowed to ``args.run``) and a blank line, and writes
    all documents' ``html`` page to ``args.html``.  An unusable artifact
    or ``--run`` prints ``<prog>: <why>`` and exits 2.
    """
    suffix = layers.artifact_suffix(layer)
    root = Path(args.path)
    if root.is_file():
        files = [root]
    elif root.is_dir():
        files = sorted(root.glob(f"*{suffix}"))
    else:
        print(f"{prog}: {root} does not exist")
        return 2
    if not files:
        print(f"{prog}: no *{suffix} artifacts under {root}")
        return 2
    docs = []
    for path in files:
        try:
            doc = build(path, path.name[: -len(suffix)])
            print(text(_select(doc, args.run)))
        except ConfigurationError as exc:
            print(f"{prog}: {exc}")
            return 2
        print()
        docs.append(doc)
    if args.html is not None:
        out = Path(args.html)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(html(docs))
        print(f"# {tag}: {out}")
    return 0


def _sibling(
    path: Path, stem: str, layer: str, load: Callable[[Path], dict]
) -> Optional[dict]:
    """``load`` of the optional ``layer`` artifact of run ``stem`` next to
    ``path``, or ``None`` when it is absent or unreadable."""
    path = path.with_name(layers.artifact_name(stem, layer))
    if not path.exists():
        return None
    try:
        return load(path)
    except (ConfigurationError, OSError, ValueError):
        return None
