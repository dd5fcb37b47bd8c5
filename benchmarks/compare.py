#!/usr/bin/env python
"""Compare two pytest-benchmark JSON exports and flag regressions.

Usage::

    python benchmarks/compare.py NEW.json [BASELINE.json]

With one argument the baseline defaults to the newest ``BENCH_*.json`` in
this directory other than ``NEW.json`` itself ("newest" by filename sort,
so name committed baselines ``BENCH_<date>_<seq>_<label>.json``).  Benchmarks are matched by
name.  A row regresses when its name contains one of the ``GATED`` tags
(Yen, BFS and precompute path-table hot paths, the simulator cycle loop
and the saturation grid) **and** the one regression judge,
``repro.obs.compare.worse``, finds its mean more than the threshold
slower (25% by default, ``--threshold 0.25``).  Any gated regression
fails the comparison with exit status 1, so the perf harness can gate
on it:

    PYTHONPATH=src python -m pytest benchmarks/test_micro_perf.py \\
        --benchmark-json=new.json
    python benchmarks/compare.py new.json

Other rows are reported but only warn: the experiment-level runs are
noisy enough that gating on them would flake.  An unreadable export,
or a bad ``--threshold`` / ``--require-speedup`` value, exits 2.  Run
manifests are compared by ``python -m repro.experiments compare-runs``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

try:
    from repro.errors import ComparisonError
    from repro.obs import compare as judge, ledger
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.errors import ComparisonError
    from repro.obs import compare as judge, ledger

#: Substrings of benchmark names that are gated (hot-path primitives whose
#: regressions the fast path-table pipeline exists to prevent, plus the
#: simulator cycle loop the telemetry layer must not slow down and the
#: batched saturation-grid tier).
GATED = ("yen", "bfs", "precompute", "simulator", "grid")


def load_export(path: Path) -> dict:
    """Read one pytest-benchmark export; ComparisonError names a bad file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ComparisonError(f"cannot read benchmark export {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("benchmarks"), list):
        raise ComparisonError(
            f"{path} is not a pytest-benchmark export (diff run manifests "
            "with 'python -m repro.experiments compare-runs')"
        )
    return doc


def load_means(path: Path) -> dict:
    rows = load_export(path)["benchmarks"]
    return {b["name"]: float(b["stats"]["mean"]) for b in rows}


def slim_export(src: Path, dst: Path) -> None:
    """Strip raw per-round samples from a pytest-benchmark export.

    Large exports (tens of thousands of ``stats.data`` samples) bloat
    committed baselines; everything ``load_means`` and the comparison
    table read is the summary statistics, which are kept verbatim.  The
    slimmed file stays loadable by older ``compare.py`` revisions.
    """
    doc = load_export(src)
    for bench in doc["benchmarks"]:
        stats = bench.get("stats")
        if isinstance(stats, dict):
            stats.pop("data", None)
    with open(dst, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def require_speedup(path: Path, base_name: str, new_name: str,
                    ratio: float) -> int:
    """Exit non-zero unless mean(base_name) / mean(new_name) >= ratio.

    Both rows come from the *same* export — this gates a speedup between
    two benchmarks of one run (e.g. the per-cell vs batched saturation
    grid), not a cross-run regression.
    """
    means = load_means(path)
    missing = [n for n in (base_name, new_name) if n not in means]
    if missing:
        print(f"benchmark row(s) not in {path}: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    achieved = means[base_name] / means[new_name]
    print(
        f"{base_name}: {means[base_name] * 1e3:.2f} ms\n"
        f"{new_name}: {means[new_name] * 1e3:.2f} ms\n"
        f"speedup: {achieved:.2f}x (required >= {ratio:.2f}x)"
    )
    if achieved < ratio:
        print(f"speedup below required {ratio:.2f}x", file=sys.stderr)
        return 1
    return 0


def default_baseline(new: Path) -> Path | None:
    here = Path(__file__).parent
    candidates = sorted(
        (p for p in here.glob("BENCH_*.json") if p.resolve() != new.resolve()),
        key=lambda p: p.name,
    )
    return candidates[-1] if candidates else None


def feed_ledger(export_path: Path, ledger_path: Path) -> int:
    """Append every benchmark row of ``export_path`` to the run ledger.

    Each row becomes a content-hash-deduplicated ``kind="bench"`` entry
    (see ``repro.obs.ledger.bench_entries``), so re-ingesting a committed
    ``BENCH_*.json`` is a no-op and the checked-in seed ledger can be
    regenerated from the exports at any time::

        for b in benchmarks/BENCH_*.json; do
            python benchmarks/compare.py "$b" --ledger benchmarks/LEDGER_seed.jsonl --ledger-only
        done

    Returns the number of entries actually appended.
    """
    entries = ledger.bench_entries(load_export(export_path))
    appended = ledger.append_entries(ledger_path, entries)
    print(
        f"ledger: {ledger_path} += {appended} of {len(entries)} row(s) "
        f"from {export_path}"
    )
    return appended


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "new", type=Path, help="pytest-benchmark JSON export to check",
    )
    parser.add_argument(
        "baseline", type=Path, nargs="?", default=None,
        help="baseline JSON (default: newest benchmarks/BENCH_*.json)",
    )
    parser.add_argument(
        "--threshold", type=judge.non_negative, default=0.25,
        help="max allowed slowdown fraction on gated benchmarks (default 0.25)",
    )
    parser.add_argument(
        "--slim", type=Path, metavar="OUT", default=None,
        help="write a slimmed copy of NEW (summary stats only, raw "
             "samples stripped) to OUT and exit",
    )
    parser.add_argument(
        "--require-speedup", nargs=3, metavar=("BASE", "NEWROW", "RATIO"),
        default=None,
        help="gate mean(BASE)/mean(NEWROW) >= RATIO within NEW's rows "
             "(exit 1 below RATIO) and exit",
    )
    parser.add_argument(
        "--ledger", type=Path, metavar="PATH", default=None,
        help="append NEW's benchmark rows to the run ledger at PATH "
             "(content-deduplicated; trendable via "
             "'python -m repro.experiments runs')",
    )
    parser.add_argument(
        "--ledger-only", action="store_true",
        help="with --ledger: exit after appending, skip the comparison",
    )
    args = parser.parse_args(argv)

    if args.ledger_only and args.ledger is None:
        parser.error("--ledger-only requires --ledger")
    if args.require_speedup is not None:
        text = args.require_speedup[2]
        try:
            required = float(text)
        except ValueError:
            required = math.nan
        if not 0.0 < required < math.inf:
            parser.error(
                f"--require-speedup RATIO must be a finite number > 0, got {text!r}"
            )

    try:
        if args.ledger is not None:
            feed_ledger(args.new, args.ledger)
            if args.ledger_only:
                return 0

        if args.slim is not None:
            slim_export(args.new, args.slim)
            print(f"slimmed {args.new} -> {args.slim}")
            return 0

        if args.require_speedup is not None:
            base_name, new_name, _ = args.require_speedup
            return require_speedup(args.new, base_name, new_name, required)

        baseline = args.baseline or default_baseline(args.new)
        if baseline is None:
            print("no baseline BENCH_*.json found; nothing to compare", file=sys.stderr)
            return 2

        new_means = load_means(args.new)
        base_means = load_means(baseline)
    except ComparisonError as exc:
        print(exc, file=sys.stderr)
        return 2

    print(f"baseline: {baseline}")
    print(f"new:      {args.new}\n")
    print(
        f"{'benchmark':50s} {'base (ms)':>10s} {'new (ms)':>10s}"
        f" {'delta':>8s} {'ratio':>7s}"
    )

    failures = []
    for name in sorted(new_means.keys() & base_means.keys()):
        base, new = base_means[name], new_means[name]
        ratio = new / base if base > 0 else float("inf")
        flag = ""
        if judge.worse("timing/mean", base, new, threshold=args.threshold, min_seconds=0.0):
            if any(tag in name.lower() for tag in GATED):
                flag = " REGRESSION"
                failures.append((name, ratio))
            else:
                flag = " (slower, not gated)"
        delta = 100.0 * (ratio - 1.0)
        print(
            f"{name:50s} {base * 1e3:10.2f} {new * 1e3:10.2f}"
            f" {delta:+7.1f}% {ratio:7.2f}{flag}"
        )

    missing = sorted(set(base_means) - set(new_means))
    if missing:
        print(f"\nnot in new run: {', '.join(missing)}")

    if failures:
        print(f"\n{len(failures)} gated regression(s) above "
              f"{100 * args.threshold:.0f}%:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print("\nno gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
