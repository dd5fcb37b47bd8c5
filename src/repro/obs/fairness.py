"""Flow-level SLO analysis: fairness, tail spread and victim-flow forensics.

:mod:`repro.obs.flowstats` records *what* every (src, dst) host pair
experienced; this module answers the paper-adjacent question multipath
rankings tend to bury: *which flows paid for the good average?*

- :func:`percentiles_from_hist` — exact percentiles from the integer
  latency histogram, reproducing ``np.percentile``'s linear
  interpolation bit-for-bit (the histogram has one bin per cycle value,
  so nothing is approximated);
- :func:`jain_index` — Jain's fairness index over per-pair delivered
  counts;
- :func:`pair_stats` / :func:`run_summary` — per-pair latency digests
  (delivered / mean / p50 / p99 / max) and the per-run fairness rollup;
- :func:`victim_pairs` — pairs whose p99 exceeds ``k`` times the run's
  median pair p99 (the flows a mean-only comparison would hide);
- :func:`victim_link_attribution` — joins victims against the
  link-state stall record (the run found by
  :func:`repro.obs.forensics.match_run`) to answer "which link is
  starving this pair";
- :func:`snapshot_gauges` — the derived scalars stamped into manifest
  gauges (worst-run Jain index, worst pair p99).

:func:`flow_docs` is the one analysis of a snapshot: one
:func:`pair_stats` pass per run, kept as a plain-data document that
:func:`flowstats_report` renders as ASCII and
:func:`repro.report.export.flowstats_html` as a self-contained page.

The CLI (``python -m repro.experiments flows <telemetry-dir>``) walks a
telemetry directory, pairs every ``*.flowstats.npz`` with its sibling
link-state artifact, prints the ASCII worst-pair tables and src-by-dst
p99 heatmaps and, with ``--html``, writes the HTML report; the
directory walk, messages and exit codes are shared with ``inspect``
(:mod:`repro.obs.forensics`).  All outputs are pure functions of the
artifacts — byte-deterministic across processes.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.flowstats import FLOWSTATS_FORMAT, load_flowstats
from repro.obs.forensics import (
    _cli,
    _select,
    _sibling,
    match_run,
    rank_stalled_links,
    run_label,
    run_windows,
)
from repro.obs.linkstate import load_linkstate

__all__ = [
    "pair_label",
    "run_label",
    "percentiles_from_hist",
    "jain_index",
    "pair_stats",
    "run_summary",
    "victim_pairs",
    "match_run",
    "victim_link_attribution",
    "snapshot_gauges",
    "flowstats_report",
    "flow_docs",
    "main",
]


def pair_label(src: int, dst: int) -> str:
    """Human label of an ordered host pair."""
    return f"h{int(src)}->h{int(dst)}"


def _check(snap: Mapping) -> None:
    if snap.get("format") != FLOWSTATS_FORMAT:
        raise ConfigurationError(
            f"not a {FLOWSTATS_FORMAT} snapshot (format={snap.get('format')!r})"
        )


# ----------------------------------------------------------- primitives
def percentiles_from_hist(
    bins: Sequence[int], counts: Sequence[int], qs: Sequence[float]
) -> List[float]:
    """Exact percentiles of histogrammed integers, matching np.percentile.

    ``bins`` are the (sorted, distinct) integer values and ``counts``
    their positive multiplicities.  Reconstructs the linear-interpolation
    rule over the implied sorted sample: rank ``r``'s value is the first
    bin whose cumulative count exceeds ``r``.
    """
    b = np.asarray(bins, dtype=np.int64)
    c = np.asarray(counts, dtype=np.int64)
    if b.size == 0:
        return [float("nan") for _ in qs]
    cum = np.cumsum(c)
    n = int(cum[-1])
    out = []
    for q in qs:
        pos = float(q) / 100.0 * (n - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        v_lo = float(b[np.searchsorted(cum, lo, side="right")])
        v_hi = float(b[np.searchsorted(cum, hi, side="right")])
        out.append(v_lo + (pos - lo) * (v_hi - v_lo))
    return out


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Computed over the *positive* entries only: a pair that delivered
    nothing is starved rather than unfairly served — it shows up in the
    victim/tail analysis, not as a zero dragging the index.  ``nan``
    when nothing was delivered at all.
    """
    x = np.asarray(values, dtype=np.float64)
    x = x[x > 0]
    if not x.size:
        return float("nan")
    s = float(x.sum())
    return s * s / (x.size * float((x * x).sum()))


# ------------------------------------------------------------ per-run views
def _pair_ends(snap: Mapping, pair: int) -> tuple:
    src = np.asarray(snap.get("pair_src", ()), dtype=np.int64)
    if src.size:
        return int(src[pair]), int(np.asarray(snap["pair_dst"])[pair])
    n = int(snap["n_hosts"])
    return pair // n, pair % n


def pair_stats(snap: Mapping, run: int) -> List[dict]:
    """Per-pair latency digests for one run, in pair-id order.

    One entry per pair that delivered at least one measured packet:
    endpoints, delivered count, mean/p50/p99/max latency in cycles.
    Percentiles come from the exact histogram, so they equal
    ``np.percentile`` over the raw per-pair latencies.
    """
    _check(snap)
    if not 0 <= run < int(snap["n_runs"]):
        raise ConfigurationError(
            f"run {run} out of range (snapshot has {int(snap['n_runs'])} runs)"
        )
    delivered = np.asarray(snap["fs_delivered"], dtype=np.int64)[run]
    lat_sum = np.asarray(snap["fs_lat_sum"], dtype=np.int64)[run]
    lat_max = np.asarray(snap["fs_lat_max"], dtype=np.int64)[run]
    mask = np.asarray(snap["fs_run"], dtype=np.int64) == run
    h_pair = np.asarray(snap["fs_pair"], dtype=np.int64)[mask]
    h_bin = np.asarray(snap["fs_bin"], dtype=np.int64)[mask]
    h_count = np.asarray(snap["fs_count"], dtype=np.int64)[mask]
    out = []
    for pair in np.flatnonzero(delivered > 0).tolist():
        rows = h_pair == pair
        p50, p99 = percentiles_from_hist(h_bin[rows], h_count[rows], (50, 99))
        src, dst = _pair_ends(snap, pair)
        n = int(delivered[pair])
        out.append(
            {
                "pair": int(pair),
                "src": src,
                "dst": dst,
                "label": pair_label(src, dst),
                "delivered": n,
                "mean": float(lat_sum[pair]) / n,
                "p50": p50,
                "p99": p99,
                "max": int(lat_max[pair]),
            }
        )
    return out


def victim_pairs(
    stats: Sequence[Mapping], *, k: float = 2.0
) -> List[dict]:
    """The pairs whose p99 exceeds ``k`` times the run's median pair p99.

    ``stats`` is a :func:`pair_stats` result.  Victims are returned
    worst-first (ties on pair id) with the ``ratio`` to the median
    attached.  A run whose median p99 is zero has no meaningful spread
    to gauge against, so it yields no victims.
    """
    if k <= 0:
        raise ConfigurationError(f"victim threshold k must be > 0, got {k}")
    p99s = [float(s["p99"]) for s in stats]
    if not p99s:
        return []
    med = float(np.median(np.asarray(p99s)))
    if med <= 0:
        return []
    victims = [
        dict(s, ratio=float(s["p99"]) / med)
        for s in stats
        if float(s["p99"]) > k * med
    ]
    victims.sort(key=lambda v: (-v["p99"], v["pair"]))
    return victims


def run_summary(snap: Mapping, run: int, *, k: float = 2.0) -> dict:
    """One run's fairness rollup: Jain index, p99 spread, worst pair."""
    return _summary(snap, run, pair_stats(snap, run), k)


def _summary(
    snap: Mapping, run: int, stats: Sequence[Mapping], k: float
) -> dict:
    """:func:`run_summary` from the run's :func:`pair_stats` digests."""
    victims = victim_pairs(stats, k=k)
    p99s = np.asarray([s["p99"] for s in stats], dtype=np.float64)
    worst = max(stats, key=lambda s: (s["p99"], -s["pair"]), default=None)
    median_p99 = float(np.median(p99s)) if p99s.size else float("nan")
    return {
        "run": int(run),
        "label": run_label(snap, run),
        "pairs_active": len(stats),
        "delivered": int(sum(s["delivered"] for s in stats)),
        "jain": jain_index([s["delivered"] for s in stats]),
        "median_p99": median_p99,
        "worst": worst,
        "spread": (
            float(worst["p99"]) / median_p99
            if worst is not None and median_p99 > 0
            else float("nan")
        ),
        "victims": victims,
        "victim_total": len(victims),
    }


def snapshot_gauges(snap: Mapping, *, k: float = 2.0) -> Dict[str, float]:
    """The snapshot's derived manifest gauges (worst run wins).

    ``netsim.fairness_jain`` is the *minimum* Jain index across runs and
    ``netsim.worst_pair_p99`` the *maximum* per-pair p99 — both pick the
    worst run, matching the max-merge semantics of registry gauges.
    """
    _check(snap)
    jains, worst = [], []
    for run in range(int(snap["n_runs"])):
        summary = run_summary(snap, run, k=k)
        if summary["worst"] is None:
            continue
        jains.append(summary["jain"])
        worst.append(float(summary["worst"]["p99"]))
    out: Dict[str, float] = {}
    if jains:
        out["netsim.fairness_jain"] = float(min(jains))
        out["netsim.worst_pair_p99"] = float(max(worst))
    return out


# ----------------------------------------------- victim -> link attribution
def victim_link_attribution(
    victims: Sequence[Mapping], ls_snap: Mapping, ls_run: int
) -> List[dict]:
    """Join victim pairs against the link-state stall record.

    For each victim the join reports the credit stalls charged to the
    victim's *injection link* (the source host could not launch) and the
    run's dominant stalled link overall (the congested core the
    backpressure tree would root at) — together they answer "which link
    is starving this pair".
    """
    w = run_windows(ls_snap, ls_run)
    stalls = (
        w["credit_stalls"].sum(axis=0)
        if w["credit_stalls"].size
        else np.zeros(int(ls_snap["n_links"]), dtype=np.int64)
    )
    link_src = np.asarray(ls_snap["link_src"], dtype=np.int64)
    ranked = rank_stalled_links(ls_snap, ls_run, top=1)
    suspect = ranked[0] if ranked else None
    out = []
    for v in victims:
        inj = np.flatnonzero(link_src == -1 - int(v["src"]))
        out.append(
            {
                "pair": int(v["pair"]),
                "label": str(v["label"]),
                "injection_stalls": (
                    int(stalls[inj[0]]) if inj.size else 0
                ),
                "suspect": (
                    {
                        "label": suspect["label"],
                        "credit_stalls": suspect["credit_stalls"],
                        "share": suspect["share"],
                    }
                    if suspect is not None
                    else None
                ),
            }
        )
    return out


# ----------------------------------------------------------- the document
def _heat_grid(stats: Sequence[Mapping], n: int, *, max_rows: int) -> tuple:
    """(row labels, int rows) of the src-by-dst p99 heatmap, hottest srcs."""
    grid = np.zeros((n, n), dtype=np.int64)
    for s in stats:
        grid[int(s["src"]), int(s["dst"])] = int(round(float(s["p99"])))
    per_src = grid.max(axis=1)
    order = np.lexsort((np.arange(n), -per_src))[:max_rows]
    rows = [int(r) for r in order if per_src[r] > 0]
    rows.sort()
    return [f"h{r}" for r in rows], [grid[r].tolist() for r in rows]


def flow_docs(
    snap: Mapping,
    *,
    name: str = "flowstats",
    linkstate: Optional[Mapping] = None,
    top: int = 8,
    k: float = 2.0,
) -> dict:
    """Analyse one snapshot once, into the plain-data flow document.

    Per run: the :func:`run_summary` rollup (``victim_total`` counts
    every victim, ``victims`` keeps the ``top`` worst), the ``top``
    worst pairs, the victims' link-state attribution (with a matching
    ``linkstate`` run) and the src-by-dst p99 heatmap.  Both
    :func:`flowstats_report` and :func:`repro.report.export.flowstats_html`
    render this document; it is JSON-able plain structures.
    """
    _check(snap)
    runs = []
    for r in range(int(snap["n_runs"])):
        stats = pair_stats(snap, r)
        summary = _summary(snap, r, stats, k)
        victims = summary["victims"][:top]
        worst_rows = sorted(stats, key=lambda s: (-s["p99"], s["pair"]))[:top]
        attribution = []
        if victims and linkstate is not None:
            ls_run = match_run(snap, r, linkstate)
            if ls_run is not None:
                attribution = victim_link_attribution(victims, linkstate, ls_run)
        labels, rows = _heat_grid(stats, int(snap["n_hosts"]), max_rows=top)
        runs.append(
            dict(
                summary,
                meta=dict(snap["runs"][r]),
                worst_rows=worst_rows,
                victims=victims,
                attribution=attribution,
                heat_labels=labels,
                heat_rows=rows,
                k=float(k),
            )
        )
    return {
        "name": name,
        "n_hosts": int(snap["n_hosts"]),
        "n_pairs": int(snap["n_pairs"]),
        "n_bins": int(snap["n_bins"]),
        "n_runs": int(snap["n_runs"]),
        "runs": runs,
    }


# ----------------------------------------------------------- ASCII report
def flowstats_report(
    snap: Mapping,
    *,
    linkstate: Optional[Mapping] = None,
    run: Optional[int] = None,
    top: int = 8,
    k: float = 2.0,
    title: str = "flow-level SLOs",
) -> str:
    """The full ASCII flow deep dive of one flowstats snapshot.

    Per run: the fairness summary line, the worst-pair table, the victim
    list (joined against the link-state stall record when available)
    and the src-by-dst p99 heatmap.  Renders the :func:`flow_docs`
    document — byte-deterministic.
    """
    doc = flow_docs(snap, linkstate=linkstate, top=top, k=k)
    return _text(_select(doc, run), title)


def _text(doc: Mapping, title: str) -> str:
    """Render a :func:`flow_docs` document as the ASCII flow deep dive."""
    from repro.report.ascii import (
        fairness_table,
        flow_pair_table,
        linkstate_heatmap,
    )

    lines = [
        f"{title}: {doc['n_runs']} run(s), {doc['n_hosts']} hosts "
        f"({doc['n_pairs']} pairs), exact {doc['n_bins']}-bin "
        "latency histograms"
    ]
    if len(doc["runs"]) > 1:
        lines += ["", fairness_table(doc["runs"])]
    for run in doc["runs"]:
        lines += [
            "",
            f"== run {run['run']}: {run['label']} — {run['delivered']} "
            f"measured packets over {run['pairs_active']} pairs",
        ]
        if run["worst"] is None:
            lines.append("   (no measured deliveries)")
            continue
        lines.append(
            f"   fairness (Jain) {run['jain']:.4f}; pair p99 median "
            f"{run['median_p99']:.1f}, worst "
            f"{run['worst']['p99']:.1f} cycles "
            f"({run['worst']['label']}, spread {run['spread']:.2f}x)"
        )
        # The document keeps the top victims, which are exactly the
        # victims among the worst rows: both lists are p99-descending.
        victim_ids = {v["pair"] for v in run["victims"]}
        lines += ["", flow_pair_table(run["worst_rows"], victim_ids=victim_ids), ""]
        if not run["victim_total"]:
            lines.append(f"   no victim pairs (p99 > {run['k']:g}x median)")
        else:
            lines.append(
                f"   victim pairs (p99 > {run['k']:g}x median): "
                f"{run['victim_total']}"
            )
        attribution = {a["pair"]: a for a in run["attribution"]}
        for v in run["victims"]:
            line = (
                f"     {v['label']}: p99 {v['p99']:.1f} "
                f"({v['ratio']:.2f}x median), "
                f"{v['delivered']} delivered"
            )
            a = attribution.get(v["pair"])
            if a is not None:
                line += f" — injection stalls {a['injection_stalls']}"
                if a["suspect"] is not None:
                    line += (
                        f", top stalled link {a['suspect']['label']} "
                        f"({100.0 * a['suspect']['share']:.1f}% of "
                        "stalls)"
                    )
            lines.append(line)
        if run["heat_rows"]:
            lines += [
                "",
                linkstate_heatmap(
                    run["heat_rows"],
                    run["heat_labels"],
                    title="   pair p99 latency by destination host "
                    "(hottest source hosts)",
                    axis="dst host",
                ),
            ]
    return "\n".join(lines)


# ------------------------------------------------------------------- CLI
def main(argv=None) -> int:
    """``flows`` entry point (``python -m repro.experiments flows``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments flows",
        description="Flow-level SLO observatory over recorded per-pair "
        "telemetry: fairness indices, tail-latency spread, victim-pair "
        "detection and an optional self-contained HTML report.",
    )
    parser.add_argument(
        "path",
        help="telemetry directory (every *.flowstats.npz in it) or one "
        ".flowstats.npz file",
    )
    parser.add_argument(
        "--run", type=int, default=None, metavar="N",
        help="inspect only run N of each snapshot (default: all runs)",
    )
    parser.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="pairs per table/heatmap (default: 8)",
    )
    parser.add_argument(
        "--k", type=float, default=2.0, metavar="X",
        help="victim threshold: pairs whose p99 exceeds X times the run "
        "median (default: 2.0)",
    )
    parser.add_argument(
        "--html", default=None, metavar="OUT",
        help="also write the self-contained HTML flow report to OUT",
    )
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be >= 1")
    if args.k <= 0:
        parser.error("--k must be > 0")
    from repro.report.export import flowstats_html

    def build(path: Path, stem: str) -> dict:
        return flow_docs(
            load_flowstats(path),
            name=stem,
            linkstate=_sibling(path, stem, "linkstate", load_linkstate),
            top=args.top,
            k=args.k,
        )

    return _cli(
        args, prog="flows", layer="flowstats", build=build,
        text=lambda doc: _text(doc, f"flow-level SLOs [{doc['name']}]"),
        html=flowstats_html, tag="flow report",
    )
