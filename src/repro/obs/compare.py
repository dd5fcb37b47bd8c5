"""The one regression judge, and cross-run diffing of run manifests.

Every perf gate decides "slower" here: ``compare-runs`` (two manifests,
this module's CLI), ``runs trend/gate/dashboard`` (a window of ledger
entries, :mod:`repro.obs.trend`) and ``benchmarks/compare.py`` (two
pytest-benchmark exports).  They share one table, one rule and one set
of options:

- :data:`GATED` lists the gated metric families in ledger naming, each
  with the direction that counts as worse;
- :func:`worse` is the rule.  A larger-is-worse metric regresses when
  its baseline clears the ``min_seconds`` noise floor and it grew by
  more than ``threshold``; a smaller-is-worse one when it fell by more
  than ``threshold``.  A ``counter/`` metric regresses only when
  ``metric_threshold`` is given, on drift in either direction (counters
  are deterministic for a fixed seed, so the drift gate doubles as a
  reproducibility check).  Nothing else ever regresses;
- :func:`add_judge_options` gives each CLI the same ``--threshold``,
  ``--metric-threshold`` and ``--min-seconds``, each a finite number
  >= 0: a NaN or infinite threshold would turn every gate off.

:func:`compare_manifests` diffs two manifests through the ledger's own
flattening (:func:`repro.obs.ledger.manifest_entry`), and the CLI entry
point (``python -m repro.experiments compare-runs A.manifest.json
B.manifest.json``) exits non-zero on regression so CI can gate on it.
In a pair diff:

- **stage timings** and **metric counters** gate through :func:`worse`;
- **wall time** is reported, never gated (too noisy across machines);
- the :data:`REPORTED_GAUGES` — engine throughput
  (``netsim.cycles_per_sec/<engine>``) and the latency/fairness SLO
  scalars — are report-only deltas; their gate lives in the N-run trend
  analysis, where a window median makes sense.

Simulator runs stamp their engine into the manifest (the
``netsim.engine_runs/<engine>`` counters).  When the two manifests ran
*different* engine sets — any mismatch among the ``reference``,
``fast`` and ``batched`` tiers, including a batched grid whose lone
jobs add ``fast`` alongside ``batched`` — their timings measure
different implementations, so timing regressions are reported but
**not gated** and the diff carries an explicit cross-engine note.
Counters still gate as usual: all engine tiers are byte-equivalent, so
counter drift across engines is a real reproducibility failure.

Manifests from different schema versions, experiments or scales refuse
to diff with a clear :class:`~repro.errors.ComparisonError` rather than
producing a silently meaningless comparison; different seeds compare.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Optional

from repro.errors import ComparisonError
from repro.obs.ledger import engines_of, manifest_entry

__all__ = [
    "GATED",
    "REPORTED_GAUGES",
    "Delta",
    "ManifestDiff",
    "add_judge_options",
    "compare_manifests",
    "direction",
    "engines_of",
    "load_manifest",
    "main",
    "non_negative",
    "reported",
    "worse",
]

#: The gated metric families, each with the direction that counts as
#: worse: +1 when larger is worse, -1 when smaller is worse.  A family
#: ending in ``/`` matches as a prefix, the others by exact name.  Gauges
#: not listed are report-only: ``core.pairs_resident``, for one, tracks
#: the workload, not the store's efficiency.
GATED = (
    ("timing/", +1),
    ("gauge/netsim.cycles_per_sec/", -1),
    ("gauge/netsim.latency_p99", +1),
    ("gauge/netsim.worst_pair_p99", +1),
    ("gauge/netsim.fairness_jain", -1),
    ("gauge/core.arena_bytes", +1),
)

#: Gauge families the reports show: engine throughput and the
#: latency/fairness SLO scalars.
REPORTED_GAUGES = (
    "gauge/netsim.cycles_per_sec/",
    "gauge/netsim.latency_",
    "gauge/netsim.mean_latency",
    "gauge/netsim.fairness_",
    "gauge/netsim.worst_pair_",
)


def direction(metric: str) -> Optional[int]:
    """The worse direction of ``metric``'s :data:`GATED` family, else None."""
    for family, sign in GATED:
        if metric == family or (
            family.endswith("/") and metric.startswith(family)
        ):
            return sign
    return None


def worse(
    metric: str,
    base: float,
    new: float,
    *,
    threshold: float = 0.25,
    metric_threshold: Optional[float] = None,
    min_seconds: float = 0.05,
) -> bool:
    """Whether ``new`` regressed ``metric`` from ``base``; see the module
    docstring for the rule."""
    sign = direction(metric)
    if sign == 1:
        return base >= min_seconds and new > base * (1.0 + threshold)
    if sign == -1:
        return base > 0 and new < base * (1.0 - threshold)
    if metric.startswith("counter/") and metric_threshold is not None:
        if base > 0:
            return abs(new / base - 1.0) > metric_threshold
        return new > 0
    return False


def reported(metric: str) -> bool:
    """Whether reports show ``metric`` by default: timings and the
    :data:`REPORTED_GAUGES`."""
    return metric.startswith(("timing/",) + REPORTED_GAUGES)


def non_negative(text: str) -> float:
    """argparse type of the judge options: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def add_judge_options(parser: argparse.ArgumentParser) -> None:
    """Add ``--threshold``, ``--metric-threshold`` and ``--min-seconds``."""
    parser.add_argument(
        "--threshold", type=non_negative, default=0.25,
        help="max allowed relative drift of gated metrics: timings up, "
        "cycles/sec down (default 0.25)",
    )
    parser.add_argument(
        "--metric-threshold", type=non_negative, default=None,
        help="gate counters drifting more than this fraction in either "
        "direction (default: report only)",
    )
    parser.add_argument(
        "--min-seconds", type=non_negative, default=0.05,
        help="noise floor: larger-is-worse metrics whose baseline is "
        "below this never gate (default 0.05)",
    )


@dataclass(frozen=True)
class Delta:
    """One compared quantity of the two manifests."""

    kind: str        # "wall" | "timing" | "gauge" | "counter"
    name: str
    base: float
    new: float
    regression: bool

    @property
    def ratio(self) -> float:
        if self.base > 0:
            return self.new / self.base
        return float("inf") if self.new > 0 else 1.0


@dataclass
class ManifestDiff:
    """The full comparison: every delta plus the gating subset."""

    deltas: List[Delta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)  # in base, not in new
    notes: List[str] = field(default_factory=list)    # e.g. cross-engine

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regression]

    def render(self) -> str:
        lines = [f"NOTE: {note}" for note in self.notes]
        lines.append(
            f"{'quantity':44s} {'base':>12s} {'new':>12s} {'delta':>8s}"
        )
        for d in self.deltas:
            delta = 100.0 * (d.ratio - 1.0) if d.base > 0 else float("inf")
            flag = "  REGRESSION" if d.regression else ""
            lines.append(
                f"{d.kind + ':' + d.name:44s} {d.base:12.4f} {d.new:12.4f}"
                f" {delta:+7.1f}%{flag}"
            )
        if self.missing:
            lines.append(f"not in new manifest: {', '.join(self.missing)}")
        n = len(self.regressions)
        lines.append(
            f"{n} regression(s)" if n else "no regressions"
        )
        return "\n".join(lines)


def _check_comparable(base: Mapping, new: Mapping) -> None:
    for key in ("format", "schema_version"):
        a, b = base.get(key), new.get(key)
        if a != b:
            raise ComparisonError(
                f"manifests are not comparable: {key} {a!r} != {b!r} "
                "(regenerate the baseline with this package version)"
            )
    # Another experiment's or scale's baseline shares no timer with this
    # run, so every row would land under "not in new manifest" and the
    # gate would pass whatever the run did.  Seeds may differ.
    for key in ("experiment", "scale"):
        a, b = base.get(key), new.get(key)
        if a != b:
            raise ComparisonError(
                f"manifests are not comparable: {key} {a!r} != {b!r} "
                "(compare runs of the same experiment at the same scale)"
            )


#: Row order of a pair diff after wall time.
_KINDS = ("timing", "gauge", "counter")


def compare_manifests(
    base: Mapping,
    new: Mapping,
    *,
    timing_threshold: float = 0.25,
    metric_threshold: Optional[float] = None,
    min_seconds: float = 0.05,
) -> ManifestDiff:
    """Diff two manifest documents; see the module docstring for gating."""
    _check_comparable(base, new)
    a, b = manifest_entry(base), manifest_entry(new)
    diff = ManifestDiff()

    cross_engine = a["engines"] and b["engines"] and a["engines"] != b["engines"]
    if cross_engine:
        diff.notes.append(
            f"cross-engine comparison (base: {', '.join(a['engines'])}; "
            f"new: {', '.join(b['engines'])}) — timings measure "
            "different simulator cores and are not gated"
        )

    diff.deltas.append(
        Delta(
            "wall", "wall_time_s",
            float(a["wall_time_s"] or 0.0),
            float(b["wall_time_s"] or 0.0),
            regression=False,
        )
    )

    old, cur = a["metrics"], b["metrics"]
    keys = {k for k in old if not k.startswith("gauge/")}
    keys |= {k for k in (*old, *cur) if k.startswith(REPORTED_GAUGES)}
    for key in sorted(keys, key=lambda k: (_KINDS.index(k.split("/", 1)[0]), k)):
        kind, name = key.split("/", 1)
        if kind != "gauge" and key not in cur:
            diff.missing.append(f"{kind}:{name}")
            continue
        x, y = old.get(key, 0.0), cur.get(key, 0.0)
        gated = kind == "counter" or (kind == "timing" and not cross_engine)
        diff.deltas.append(
            Delta(
                kind, name, x, y,
                gated and worse(
                    key, x, y,
                    threshold=timing_threshold,
                    metric_threshold=metric_threshold,
                    min_seconds=min_seconds,
                ),
            )
        )
    return diff


def load_manifest(path) -> dict:
    """Read one manifest JSON, validating it looks like a manifest."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ComparisonError(f"cannot read manifest {path}: {exc}") from exc
    fmt = doc.get("format", "")
    if not isinstance(fmt, str) or not fmt.startswith("repro-manifest"):
        raise ComparisonError(
            f"{path} is not a run manifest (format={fmt!r})"
        )
    return doc


def main(argv=None) -> int:
    """CLI: diff two manifests, exit 1 on regression, 2 on refusal."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments compare-runs",
        description="Diff two run manifests and fail on regression.",
    )
    parser.add_argument("base", type=Path, help="baseline manifest JSON")
    parser.add_argument("new", type=Path, help="manifest JSON to check")
    add_judge_options(parser)
    args = parser.parse_args(argv)

    try:
        base = load_manifest(args.base)
        new = load_manifest(args.new)
        diff = compare_manifests(
            base, new,
            timing_threshold=args.threshold,
            metric_threshold=args.metric_threshold,
            min_seconds=args.min_seconds,
        )
    except ComparisonError as exc:
        print(f"compare-runs: {exc}", file=sys.stderr)
        return 2

    print(f"baseline: {args.base}")
    print(f"new:      {args.new}\n")
    print(diff.render())
    return 1 if diff.regressions else 0


if __name__ == "__main__":
    sys.exit(main())
