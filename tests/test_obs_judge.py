"""The one regression judge behind every perf gate.

``compare-runs``, ``runs trend/gate`` and ``benchmarks/compare.py``
decide "slower" through :func:`repro.obs.compare.worse`.  Each gate
used to carry its own copy of the rule; those copies are kept below as
oracles (as ``test_appsim_fairshare.py`` keeps the loop solver), and the
judge must reach the same verdicts on random inputs.  The CLIs must also
refuse a threshold that would turn a gate off.
"""

import json
from statistics import median

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.obs.compare import (
    Delta,
    ManifestDiff,
    compare_manifests,
    main as compare_runs_main,
)
from repro.obs.ledger import LEDGER_FORMAT, LEDGER_SCHEMA_VERSION, engines_of, entry_id
from repro.obs.manifest import MANIFEST_FORMAT, MANIFEST_SCHEMA_VERSION
from repro.obs.trend import _changepoint, analyze_entries, main as runs_main

pytestmark = pytest.mark.obs

# ------------------------------------------------ the reference rules

_REF_CPS_PREFIX = "gauge/netsim.cycles_per_sec/"
_REF_LATENCY_GAUGES = ("gauge/netsim.latency_p99", "gauge/netsim.worst_pair_p99")
_REF_FAIRNESS_GAUGES = ("gauge/netsim.fairness_jain",)
_REF_FOOTPRINT_GAUGES = ("gauge/core.arena_bytes",)


def _reference_direction(metric):
    if metric.startswith("timing/"):
        return 1
    if metric.startswith(_REF_CPS_PREFIX):
        return -1
    if metric in _REF_LATENCY_GAUGES:
        return 1
    if metric in _REF_FAIRNESS_GAUGES:
        return -1
    if metric in _REF_FOOTPRINT_GAUGES:
        return 1
    return None


def _reference_gate(name, values, *, threshold, metric_threshold, min_seconds, min_runs):
    """The per-metric gating block of the trend analysis, one tier."""
    base = median(values)
    latest = values[-1]
    cp, shift = _changepoint(values)
    direction = _reference_direction(name)
    gateable = len(values) >= min_runs
    regression = False
    note = ""
    if direction == 1 and gateable:
        floor_ok = base >= min_seconds
        if floor_ok and latest > base * (1.0 + threshold):
            regression = True
        elif (
            cp is not None
            and shift is not None
            and shift > threshold
            and median(values[:cp]) >= min_seconds
        ):
            regression = True
            note = f"changepoint at run {cp}"
    elif direction == -1 and gateable:
        if base > 0 and latest < base * (1.0 - threshold):
            regression = True
        elif cp is not None and shift is not None and shift < -threshold:
            regression = True
            note = f"changepoint at run {cp}"
    elif (
        direction is None
        and name.startswith("counter/")
        and metric_threshold is not None
        and gateable
    ):
        if base > 0:
            regression = abs(latest / base - 1.0) > metric_threshold
        else:
            regression = latest > 0
    return regression, note


_REF_SLO_PREFIXES = (
    "netsim.latency_",
    "netsim.mean_latency",
    "netsim.fairness_jain",
    "netsim.worst_pair_p99",
)


def _reference_compare_manifests(
    base, new, *, timing_threshold=0.25, metric_threshold=None, min_seconds=0.05
):
    """The three per-kind loops of the pair diff (inputs are comparable)."""
    diff = ManifestDiff()
    base_engines = engines_of(base)
    new_engines = engines_of(new)
    cross_engine = (
        bool(base_engines) and bool(new_engines) and base_engines != new_engines
    )
    if cross_engine:
        diff.notes.append(
            "cross-engine comparison (base: "
            f"{', '.join(sorted(base_engines))}; new: "
            f"{', '.join(sorted(new_engines))}) — timings measure "
            "different simulator cores and are not gated"
        )
    diff.deltas.append(
        Delta(
            "wall", "wall_time_s",
            float(base.get("wall_time_s", 0.0)),
            float(new.get("wall_time_s", 0.0)),
            regression=False,
        )
    )
    base_timings = base.get("stage_timings", {})
    new_timings = new.get("stage_timings", {})
    for name in sorted(base_timings):
        b = float(base_timings[name].get("total", 0.0))
        if name not in new_timings:
            diff.missing.append(f"timing:{name}")
            continue
        n = float(new_timings[name].get("total", 0.0))
        regressed = (
            not cross_engine and b >= min_seconds and n > b * (1.0 + timing_threshold)
        )
        diff.deltas.append(Delta("timing", name, b, n, regressed))
    base_gauges = base.get("metrics", {}).get("gauges", {})
    new_gauges = new.get("metrics", {}).get("gauges", {})
    for name in sorted(set(base_gauges) | set(new_gauges)):
        if not name.startswith(("netsim.cycles_per_sec/",) + _REF_SLO_PREFIXES):
            continue
        diff.deltas.append(
            Delta(
                "gauge", name,
                float(base_gauges.get(name, 0.0)),
                float(new_gauges.get(name, 0.0)),
                regression=False,
            )
        )
    base_counters = base.get("metrics", {}).get("counters", {})
    new_counters = new.get("metrics", {}).get("counters", {})
    for name in sorted(base_counters):
        b = float(base_counters[name])
        if name not in new_counters:
            diff.missing.append(f"counter:{name}")
            continue
        n = float(new_counters[name])
        regressed = False
        if metric_threshold is not None:
            if b > 0:
                regressed = abs(n / b - 1.0) > metric_threshold
            else:
                regressed = n > 0
        diff.deltas.append(Delta("counter", name, b, n, regressed))
    return diff


# --------------------------------------------------- trend verdicts

FAMILIES = [
    "timing/experiment.stage",
    "gauge/netsim.cycles_per_sec/fast",
    "gauge/netsim.latency_p99",
    "gauge/netsim.worst_pair_p99",
    "gauge/netsim.fairness_jain",
    "gauge/core.arena_bytes",
    "gauge/core.pairs_resident",
    "counter/netsim.flits_forwarded",
]
THRESHOLDS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
METRIC_THRESHOLDS = st.sampled_from([None, 0.0, 0.1, 0.5])
MIN_SECONDS = st.sampled_from([0.0, 0.05, 1.0])
VALUES = st.one_of(
    st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0, 1.5, 2.0]),
    st.floats(min_value=0.0, max_value=3.0),
)


def _near_boundary(base, new, tau):
    """``new/base - 1`` within rounding of ``±tau``: where ``r - 1 > t``
    and ``new > base * (1 + t)`` may disagree in the last bit."""
    return base > 0 and new != base and abs(abs(new / base - 1.0) - tau) <= 1e-9


def _compared_pairs(values):
    yield median(values), values[-1]
    for k in range(1, len(values) - 1):
        yield median(values[:k]), median(values[k:])


@settings(max_examples=400, deadline=None)
@given(
    metric=st.sampled_from(FAMILIES),
    values=st.lists(VALUES, min_size=2, max_size=8),
    engines=st.sampled_from([(), ("fast",), ("batched", "fast")]),
    threshold=THRESHOLDS,
    metric_threshold=METRIC_THRESHOLDS,
    min_seconds=MIN_SECONDS,
    min_runs=st.integers(min_value=1, max_value=5),
)
def test_trend_verdicts_match_reference(
    metric, values, engines, threshold, metric_threshold, min_seconds, min_runs
):
    taus = [threshold] + ([] if metric_threshold is None else [metric_threshold])
    assume(not any(
        _near_boundary(b, n, tau) for b, n in _compared_pairs(values) for tau in taus
    ))
    entries = []
    for i, v in enumerate(values):
        entry = {
            "format": LEDGER_FORMAT,
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "manifest",
            "experiment": "fig9",
            "scale": "small",
            "host": "ci",
            "engines": list(engines),
            "created_at": f"2026-08-01T00:00:{i:02d}+00:00",
            "metrics": {metric: v},
        }
        entry["id"] = entry_id(entry)
        entries.append(entry)
    judge = dict(
        threshold=threshold, metric_threshold=metric_threshold, min_seconds=min_seconds
    )
    (trend,) = analyze_entries(entries, min_runs=min_runs, **judge).trends
    expected = _reference_gate(metric, values, min_runs=min_runs, **judge)
    assert (trend.regression, trend.note) == expected


# ------------------------------------------------------- pair diffs

TIMERS = ["experiment.fig9", "stage.topology"]
GAUGES = [
    "netsim.cycles_per_sec/fast",
    "netsim.cycles_per_sec/batched",
    "netsim.latency_p50",
    "netsim.latency_p99",
    "netsim.mean_latency",
    "netsim.fairness_jain",
    "netsim.worst_pair_p99",
    "core.arena_bytes",
    "core.pairs_resident",
]
COUNTERS = ["netsim.flits_forwarded", "netsim.delivered"]
ENGINE_COUNTERS = [
    "netsim.engine_runs/fast",
    "netsim.engine_runs/batched",
    "netsim.engine_runs/reference",
]


@st.composite
def _manifests(draw, with_engines):
    value = st.floats(min_value=0.0, max_value=3.0)
    counters = draw(st.dictionaries(st.sampled_from(COUNTERS), st.integers(0, 3)))
    if with_engines:
        counters.update(draw(st.dictionaries(
            st.sampled_from(ENGINE_COUNTERS), st.integers(0, 3), min_size=1
        )))
    return {
        "format": MANIFEST_FORMAT,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "wall_time_s": draw(value),
        "stage_timings": draw(st.dictionaries(
            st.sampled_from(TIMERS), value.map(lambda t: {"count": 1, "total": t}),
            min_size=1,
        )),
        "metrics": {
            "gauges": draw(st.dictionaries(st.sampled_from(GAUGES), value)),
            "counters": counters,
        },
    }


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    with_engines=st.booleans(),
    timing_threshold=THRESHOLDS,
    metric_threshold=METRIC_THRESHOLDS,
    min_seconds=MIN_SECONDS,
)
def test_pair_diffs_match_reference(
    data, with_engines, timing_threshold, metric_threshold, min_seconds
):
    base = data.draw(_manifests(with_engines))
    new = data.draw(_manifests(with_engines))
    judge = dict(
        timing_threshold=timing_threshold,
        metric_threshold=metric_threshold,
        min_seconds=min_seconds,
    )
    got = compare_manifests(base, new, **judge)
    expected = _reference_compare_manifests(base, new, **judge)
    assert got.deltas == expected.deltas
    assert got.missing == expected.missing
    assert got.notes == expected.notes


# -------------------------------------------- values that disarm a gate

def _inputs(tmp_path, bench_compare):
    manifest = {
        "format": MANIFEST_FORMAT,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "wall_time_s": 1.0,
        "stage_timings": {"experiment.fig9": {"count": 1, "total": 1.0}},
        "metrics": {"counters": {}, "gauges": {}},
    }
    export = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean, "min": mean}}
            for name, mean in (("test_perf_yen_k8", 0.1), ("test_perf_bfs", 0.1))
        ]
    }
    ledger = {
        "format": LEDGER_FORMAT,
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "manifest",
        "experiment": "fig9",
        "scale": "small",
        "metrics": {"timing/experiment.fig9": 1.0},
    }
    ledger["id"] = entry_id(ledger)
    paths = {}
    for name, doc in (("m.json", manifest), ("x.json", export), ("l.jsonl", ledger)):
        paths[name] = tmp_path / name
        paths[name].write_text(json.dumps(doc) + "\n")
    m, x, ledger_path = (str(paths[n]) for n in ("m.json", "x.json", "l.jsonl"))
    return {
        "compare-runs": lambda opts: compare_runs_main([m, m, *opts]),
        "runs gate": lambda opts: runs_main(["gate", "--ledger", ledger_path, *opts]),
        "compare.py": lambda opts: bench_compare.main([x, x, *opts]),
    }


@pytest.mark.parametrize(
    "cli, opts",
    [
        ("compare-runs", ["--threshold", "nan"]),
        ("compare-runs", ["--metric-threshold", "nan"]),
        ("compare-runs", ["--min-seconds", "nan"]),
        ("runs gate", ["--threshold", "inf"]),
        ("runs gate", ["--metric-threshold", "nan"]),
        ("runs gate", ["--min-seconds", "-0.5"]),
        ("runs gate", ["--window", "-2"]),
        ("runs gate", ["--min-runs", "0"]),
        ("compare.py", ["--threshold", "nan"]),
        ("compare.py", ["--require-speedup", "test_perf_yen_k8", "test_perf_bfs", "nan"]),
    ],
)
def test_disarming_values_are_usage_errors(cli, opts, tmp_path, bench_compare, capsys):
    run = _inputs(tmp_path, bench_compare)[cli]
    with pytest.raises(SystemExit) as exc:
        run(opts)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
