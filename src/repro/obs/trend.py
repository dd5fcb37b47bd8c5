"""N-run trend analysis over the run ledger, and the ``runs`` CLI.

``compare-runs`` answers "did run B regress against run A?"; this module
answers the fleet-scale question: *across the last N runs of each
experiment, is any metric drifting the wrong way?*  It consumes the
ledger entries of :mod:`repro.obs.ledger`, groups them into series —
``(kind, experiment, scale, host, engine tiers)``, so baselines and noise
floors are scoped per machine and per simulator core, and untagged
entries form a tier of their own — and fits a robust per-metric baseline
(the window median) plus a two-segment changepoint split.  The judge is
:func:`repro.obs.compare.worse`, the same rule ``compare-runs`` and
``benchmarks/compare.py`` apply to a pair:

- a metric regresses when ``worse(metric, window median, latest)``;
- a metric in a gated family (:data:`repro.obs.compare.GATED`) also
  regresses when the segment medians across its best changepoint
  (suffix of >= 2 runs) are ``worse`` — a single noisy run cannot hide
  a step change, and a step change cannot hide behind a recovered
  median;
- ``counter/...`` metrics gate only with ``metric_threshold``, against
  the window median; other gauges are reported, never gated.

Gating needs history: series shorter than ``min_runs`` (default 3) are
reported but never gate.  The CLI family::

    python -m repro.experiments runs list   [--ledger PATH ...]
    python -m repro.experiments runs show   ID
    python -m repro.experiments runs trend  [--gate] [--window N] ...
    python -m repro.experiments runs gate   [--window N] ...
    python -m repro.experiments runs dashboard --out FILE.html

``runs gate`` (and ``runs trend --gate``) exits 1 on any trend
regression and 2 when no usable entries exist, so CI can gate the
committed perf trajectory instead of a single A/B pair.  Output is
deterministic: the ASCII tables and the HTML dashboard are pure
functions of the ledger contents.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ComparisonError
from repro.obs.compare import add_judge_options, direction, worse
from repro.obs.ledger import default_ledger_path, load_entries, series_key

__all__ = [
    "EXPORT_COLUMNS",
    "MetricTrend",
    "TrendReport",
    "analyze_entries",
    "export_csv",
    "main",
]


@dataclass(frozen=True)
class MetricTrend:
    """The trajectory of one metric within one series."""

    series: Tuple[str, str, str, str, str]  # (kind, experiment, scale, host, tiers)
    metric: str                        # "timing/..." | "gauge/..." | "counter/..."
    values: Tuple[float, ...]          # time-ordered window
    baseline: float                    # window median
    latest: float
    regression: bool
    changepoint: Optional[int] = None  # split index of the best changepoint
    shift: Optional[float] = None      # relative median shift across it
    note: str = ""                     # e.g. "changepoint at run 3"

    @property
    def label(self) -> str:
        kind, experiment, scale, host, tiers = self.series
        where = (f"@{host}" if host else "") + (f"/{tiers}" if tiers else "")
        if kind == "bench":
            return f"{experiment}{where}"
        return f"{experiment}[{scale}]{where}"

    @property
    def ratio(self) -> float:
        if self.baseline > 0:
            return self.latest / self.baseline
        return float("inf") if self.latest > 0 else 1.0


@dataclass
class TrendReport:
    """Every analysed metric trend."""

    trends: List[MetricTrend] = field(default_factory=list)
    n_entries: int = 0
    n_series: int = 0

    @property
    def regressions(self) -> List[MetricTrend]:
        return [t for t in self.trends if t.regression]


def _changepoint(values: Sequence[float]) -> Tuple[Optional[int], Optional[float]]:
    """The best two-segment split of ``values``: ``(index, median shift)``.

    Scans every split with a suffix of at least two runs (one outlier is
    the baseline rule's job, not a changepoint) and returns the split
    with the largest relative shift between segment medians; equal
    shifts break toward the split whose segments are most homogeneous
    (smallest total deviation from their own medians), which lands the
    index on the actual regime boundary rather than the first split
    straddling it.  ``shift`` is ``median(suffix)/median(prefix) - 1``;
    ``None`` when no split qualifies or the prefix median is zero.
    """
    n = len(values)
    best: Tuple[Optional[int], Optional[float]] = (None, None)
    best_rank = None
    for k in range(1, n - 1):  # suffix values[k:] has >= 2 points
        pre_m = median(values[:k])
        post_m = median(values[k:])
        if pre_m <= 0:
            continue
        shift = post_m / pre_m - 1.0
        if shift == 0.0:
            continue
        cost = sum(abs(v - pre_m) for v in values[:k]) + sum(
            abs(v - post_m) for v in values[k:]
        )
        rank = (abs(shift), -cost)
        if best_rank is None or rank > best_rank:
            best_rank = rank
            best = (k, shift)
    return best


def analyze_entries(
    entries: Sequence[Mapping],
    *,
    window: Optional[int] = None,
    threshold: float = 0.25,
    metric_threshold: Optional[float] = None,
    min_seconds: float = 0.05,
    min_runs: int = 3,
    metric_filter: Optional[str] = None,
) -> TrendReport:
    """Fit per-metric trends over time-ordered ledger ``entries``.

    ``window`` keeps only each series' most recent N entries.
    ``metric_filter`` is a substring filter on metric names (the CLI's
    ``--metric``).  The thresholds are those of :func:`repro.obs.compare.
    worse`; see the module docstring for the gating rules.
    """
    series: Dict[tuple, List[Mapping]] = {}
    for entry in entries:
        series.setdefault(series_key(entry), []).append(entry)

    judge = dict(
        threshold=threshold, metric_threshold=metric_threshold, min_seconds=min_seconds
    )
    report = TrendReport(n_entries=len(entries), n_series=len(series))
    for key in sorted(series):
        group = series[key]
        if window is not None and window > 0:
            group = group[-window:]
        metrics = sorted({m for e in group for m in (e.get("metrics") or {})})
        for name in metrics:
            if metric_filter and metric_filter not in name:
                continue
            values = [
                float(e["metrics"][name])
                for e in group
                if name in (e.get("metrics") or {})
            ]
            if len(values) < 2:
                continue
            base = median(values)
            latest = values[-1]
            cp, shift = _changepoint(values)
            regression, note = False, ""
            if len(values) >= min_runs:
                if worse(name, base, latest, **judge):
                    regression = True
                elif (
                    cp is not None
                    and direction(name) is not None
                    and worse(name, median(values[:cp]), median(values[cp:]), **judge)
                ):
                    regression, note = True, f"changepoint at run {cp}"
            report.trends.append(
                MetricTrend(
                    series=key,
                    metric=name,
                    values=tuple(values),
                    baseline=base,
                    latest=latest,
                    regression=regression,
                    changepoint=cp,
                    shift=shift,
                    note=note,
                )
            )
    return report


# ---------------------------------------------------------------- export

#: Fixed column order of ``runs export --csv`` — downstream notebooks and
#: spreadsheets key on positions, so this tuple is append-only.
EXPORT_COLUMNS = (
    "id", "created_at", "kind", "experiment", "scale", "host",
    "engines", "batch_lanes", "seed", "metric", "value",
)


def export_csv(entries: Sequence[Mapping]) -> str:
    """Flatten ledger entries into CSV text: one row per (entry, metric).

    The export is a pure function of the ledger contents — entries keep
    their load order, metrics sort by name within an entry, ``engines``
    joins with ``";"``, and values use ``repr(float)`` — so two exports
    of the same ledger are byte-identical.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EXPORT_COLUMNS)
    for entry in entries:
        head = [
            entry.get("id", ""),
            entry.get("created_at", ""),
            entry.get("kind", ""),
            entry.get("experiment", ""),
            entry.get("scale", ""),
            entry.get("host", ""),
            ";".join(str(e) for e in entry.get("engines") or ()),
            entry.get("batch_lanes"),
            entry.get("seed"),
        ]
        metrics = entry.get("metrics") or {}
        for name in sorted(metrics):
            writer.writerow(head + [name, repr(float(metrics[name]))])
    return buf.getvalue()


# ---------------------------------------------------------------- CLI


def _resolve_ledgers(args) -> List[Path]:
    if args.ledger:
        return [Path(p) for p in args.ledger]
    return [default_ledger_path()]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", action="append", metavar="PATH", default=None,
        help="ledger file(s) to read; repeatable — entries merge and "
        "dedup across files (default: $REPRO_RUN_LEDGER or "
        "~/.cache/repro/run-ledger.jsonl)",
    )


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_trend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window", type=_at_least_one, default=None, metavar="N",
        help="analyse only each series' most recent N runs (default: all)",
    )
    add_judge_options(parser)
    parser.add_argument(
        "--min-runs", type=_at_least_one, default=3,
        help="series shorter than this never gate (default 3)",
    )
    parser.add_argument(
        "--metric", default=None, metavar="SUBSTR",
        help="only analyse metrics whose name contains SUBSTR",
    )


def _analyze(args, entries) -> TrendReport:
    return analyze_entries(
        entries,
        window=args.window,
        threshold=args.threshold,
        metric_threshold=args.metric_threshold,
        min_seconds=args.min_seconds,
        min_runs=args.min_runs,
        metric_filter=args.metric,
    )


def main(argv=None) -> int:
    """``python -m repro.experiments runs ...`` — the ledger CLI family."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments runs",
        description="Inspect and trend-gate the persistent run ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="tabulate the ledger's entries")
    _add_common(p_list)

    p_show = sub.add_parser("show", help="print one entry as JSON")
    _add_common(p_show)
    p_show.add_argument("id", help="entry id (unambiguous prefix accepted)")

    p_trend = sub.add_parser(
        "trend", help="per-metric trend tables with sparklines"
    )
    _add_common(p_trend)
    _add_trend_options(p_trend)
    p_trend.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any metric trend regressed",
    )
    p_trend.add_argument(
        "--all", action="store_true",
        help="show every metric (default: timings, cycles/sec and "
        "regressions only)",
    )

    p_gate = sub.add_parser(
        "gate", help="trend-gate the ledger (shorthand for trend --gate)"
    )
    _add_common(p_gate)
    _add_trend_options(p_gate)

    p_export = sub.add_parser(
        "export", help="flatten the ledger to CSV (one row per metric)"
    )
    _add_common(p_export)
    p_export.add_argument(
        "--csv", action="store_true", required=True,
        help="CSV format (the only format; the flag keeps room for more)",
    )
    p_export.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )

    p_dash = sub.add_parser(
        "dashboard", help="write the static HTML fleet dashboard"
    )
    _add_common(p_dash)
    _add_trend_options(p_dash)
    p_dash.add_argument(
        "--out", type=Path, required=True, metavar="FILE",
        help="output HTML file (self-contained, no external assets)",
    )

    args = parser.parse_args(argv)
    paths = _resolve_ledgers(args)
    try:
        entries = load_entries(paths)
    except ComparisonError as exc:
        print(f"runs: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(
            "runs: no ledger entries under "
            + ", ".join(str(p) for p in paths)
            + " (run experiments with --telemetry-dir, or pass --ledger)",
            file=sys.stderr,
        )
        return 2

    if args.command == "list":
        from repro.report import ledger_table

        print(ledger_table(entries))
        return 0

    if args.command == "show":
        matches = [e for e in entries if e["id"].startswith(args.id)]
        if not matches:
            print(f"runs: no entry with id {args.id!r}", file=sys.stderr)
            return 2
        if len(matches) > 1:
            print(
                f"runs: id prefix {args.id!r} is ambiguous "
                f"({len(matches)} entries)",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(matches[0], indent=2, sort_keys=True))
        return 0

    if args.command == "export":
        text = export_csv(entries)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text)
            print(f"# csv: {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    report = _analyze(args, entries)
    if args.command == "dashboard":
        from repro.report import trend_dashboard_html

        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(trend_dashboard_html(report, entries))
        print(f"# dashboard: {args.out}")
        return 0

    from repro.report import trend_table

    gate = args.command == "gate" or args.gate
    show_all = getattr(args, "all", False)
    print(trend_table(report, show_all=show_all))
    n = len(report.regressions)
    if gate:
        return 1 if n else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
