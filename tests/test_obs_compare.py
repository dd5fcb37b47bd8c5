"""Cross-run regression diffing: thresholds, schema refusal, exit codes.

``python -m repro.experiments compare-runs A B`` is CI's regression gate,
so the exit-code contract is pinned here: 0 for a clean diff, 1 when a
gated quantity regressed, 2 when the manifests refuse to compare.
"""

import json

import pytest

from repro.errors import ComparisonError
from repro.experiments.runner import main as runner_main
from repro.obs.compare import compare_manifests, engines_of, load_manifest
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
)

pytestmark = pytest.mark.obs


def _manifest(stage_total=1.0, counters=None, wall=2.0):
    snap = {
        "timers": {"experiment.fig9": {"count": 1, "total": stage_total}},
        "counters": counters or {"netsim.flits_forwarded": 1000},
    }
    return build_manifest(
        experiment="fig9", scale="small", seed=0,
        wall_time_s=wall, metrics_snapshot=snap,
    )


# ------------------------------------------------------------- documents

def test_manifest_carries_schema_and_provenance():
    doc = _manifest()
    assert doc["format"] == MANIFEST_FORMAT
    assert doc["schema_version"] == MANIFEST_SCHEMA_VERSION
    assert doc["package_version"]
    # Best-effort provenance: a hex commit inside a git checkout, else None.
    commit = doc["git_commit"]
    assert commit is None or (
        isinstance(commit, str) and len(commit) == 40
    )


def test_identical_manifests_have_no_regressions():
    diff = compare_manifests(_manifest(), _manifest())
    assert diff.regressions == []
    kinds = {d.kind for d in diff.deltas}
    assert kinds == {"wall", "timing", "counter"}


def test_slowed_stage_is_a_regression():
    diff = compare_manifests(
        _manifest(stage_total=1.0), _manifest(stage_total=1.5),
        timing_threshold=0.25,
    )
    names = [d.name for d in diff.regressions]
    assert names == ["experiment.fig9"]
    assert "REGRESSION" in diff.render()


def test_noise_floor_suppresses_fast_stages():
    diff = compare_manifests(
        _manifest(stage_total=0.01), _manifest(stage_total=0.04),
        timing_threshold=0.25, min_seconds=0.05,
    )
    assert diff.regressions == []


def test_wall_time_reported_but_never_gated():
    diff = compare_manifests(_manifest(wall=1.0), _manifest(wall=100.0))
    wall = [d for d in diff.deltas if d.kind == "wall"]
    assert len(wall) == 1 and not wall[0].regression


def test_counters_gated_only_with_metric_threshold():
    base = _manifest(counters={"netsim.flits_forwarded": 1000})
    new = _manifest(counters={"netsim.flits_forwarded": 1200})
    assert compare_manifests(base, new).regressions == []
    diff = compare_manifests(base, new, metric_threshold=0.1)
    assert [d.name for d in diff.regressions] == ["netsim.flits_forwarded"]
    # Drift gates both directions (a counter dropping is as suspicious).
    down = _manifest(counters={"netsim.flits_forwarded": 800})
    assert compare_manifests(base, down, metric_threshold=0.1).regressions


def test_missing_quantities_reported():
    base = _manifest(counters={"a": 1, "b": 2})
    new = _manifest(counters={"a": 1})
    diff = compare_manifests(base, new)
    assert diff.missing == ["counter:b"]
    assert "not in new manifest" in diff.render()


def test_cross_schema_diff_refused():
    base, new = _manifest(), _manifest()
    new["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
    with pytest.raises(ComparisonError, match="schema_version"):
        compare_manifests(base, new)


def test_load_manifest_rejects_non_manifest(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ComparisonError, match="not a run manifest"):
        load_manifest(path)
    with pytest.raises(ComparisonError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")


# ------------------------------------------------------------------ CLI

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_exit_zero_on_identical(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _manifest())
    b = _write(tmp_path, "b.json", _manifest())
    assert runner_main(["compare-runs", a, b]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_exit_one_on_timing_regression(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _manifest(stage_total=1.0))
    b = _write(tmp_path, "b.json", _manifest(stage_total=2.0))
    assert runner_main(["compare-runs", a, b]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # A looser threshold accepts the same pair.
    assert runner_main(["compare-runs", a, b, "--threshold", "1.5"]) == 0


def test_cli_exit_two_on_schema_mismatch(tmp_path, capsys):
    doc = _manifest()
    a = _write(tmp_path, "a.json", doc)
    other = dict(doc, schema_version=MANIFEST_SCHEMA_VERSION + 1)
    b = _write(tmp_path, "b.json", other)
    assert runner_main(["compare-runs", a, b]) == 2
    assert "not comparable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, other", [("experiment", "table2"), ("scale", "medium")]
)
def test_cli_exit_two_on_other_experiment_or_scale(tmp_path, capsys, key, other):
    doc = _manifest()
    a = _write(tmp_path, "a.json", doc)
    b = _write(tmp_path, "b.json", dict(doc, **{key: other}))
    # Another run's baseline shares no timer, so every row would land
    # under "not in new manifest" and the gate would pass unseen.
    assert runner_main(["compare-runs", a, b]) == 2
    err = capsys.readouterr().err
    assert "not comparable" in err and key in err
    with pytest.raises(ComparisonError, match=key):
        compare_manifests(doc, dict(doc, **{key: other}))


def test_other_seed_still_compares():
    doc = _manifest()
    assert compare_manifests(doc, dict(doc, seed=7)).regressions == []


# ------------------------------------------------------- engine provenance

def _engine_manifest(engine, stage_total=1.0, counters=None, cps=1.0e5):
    snap = {
        "timers": {"experiment.fig9": {"count": 1, "total": stage_total}},
        "counters": dict(
            counters or {"netsim.flits_forwarded": 1000},
            **{f"netsim.engine_runs/{engine}": 3},
        ),
        "gauges": {f"netsim.cycles_per_sec/{engine}": cps},
    }
    return build_manifest(
        experiment="fig9", scale="small", seed=0,
        wall_time_s=2.0, metrics_snapshot=snap,
    )


def test_engines_of_reads_engine_run_counters():
    assert engines_of(_engine_manifest("fast")) == {"fast"}
    assert engines_of(_engine_manifest("reference")) == {"reference"}
    # Pre-engine manifests (and non-simulator runs) have no engine stamp.
    assert engines_of(_manifest()) == frozenset()
    # A zero count means the engine never actually ran.
    zero = _manifest(counters={"netsim.engine_runs/fast": 0})
    assert engines_of(zero) == frozenset()


def test_cross_engine_timings_reported_but_not_gated():
    base = _engine_manifest("reference", stage_total=1.0)
    new = _engine_manifest("fast", stage_total=5.0)
    diff = compare_manifests(base, new, timing_threshold=0.25)
    # A 5x "slowdown" across different cores is not a regression…
    assert diff.regressions == []
    # …and the diff says why, loudly.
    assert any("cross-engine" in note for note in diff.notes)
    rendered = diff.render()
    assert rendered.startswith("NOTE: cross-engine comparison")
    assert "reference" in rendered and "fast" in rendered


def test_same_engine_timings_still_gate():
    base = _engine_manifest("fast", stage_total=1.0)
    new = _engine_manifest("fast", stage_total=5.0)
    diff = compare_manifests(base, new, timing_threshold=0.25)
    assert diff.notes == []
    assert any(d.kind == "timing" for d in diff.regressions)


def test_cross_engine_counter_drift_still_gates():
    # The engines are byte-equivalent, so counter drift across engines is
    # a reproducibility failure — the cross-engine waiver is timing-only.
    base = _engine_manifest(
        "reference", counters={"netsim.flits_forwarded": 1000}
    )
    new = _engine_manifest("fast", counters={"netsim.flits_forwarded": 1500})
    diff = compare_manifests(base, new, metric_threshold=0.1)
    names = {d.name for d in diff.regressions}
    assert "netsim.flits_forwarded" in names


def test_batched_cross_engine_timings_waived():
    # The timing-gate waiver must cover the batched multi-lane tier the
    # same way it covers fast-vs-reference: a batched grid's timings
    # measure a different core than a per-cell run's.
    base = _engine_manifest("fast", stage_total=1.0)
    new = _engine_manifest("batched", stage_total=5.0)
    diff = compare_manifests(base, new, timing_threshold=0.25)
    assert diff.regressions == []
    assert any("cross-engine" in note for note in diff.notes)
    rendered = diff.render()
    assert "batched" in rendered and "fast" in rendered


def test_mixed_batched_manifest_triggers_waiver():
    # A batched grid with fallback cells stamps BOTH engines
    # (netsim.engine_runs/{fast,batched}); against a pure fast run the
    # engine sets differ, so the waiver must trigger.
    snap = {
        "timers": {"experiment.fig9": {"count": 1, "total": 5.0}},
        "counters": {
            "netsim.flits_forwarded": 1000,
            "netsim.engine_runs/fast": 2,
            "netsim.engine_runs/batched": 6,
        },
    }
    mixed = build_manifest(
        experiment="fig9", scale="small", seed=0,
        wall_time_s=2.0, metrics_snapshot=snap,
    )
    assert engines_of(mixed) == {"batched", "fast"}
    diff = compare_manifests(
        _engine_manifest("fast", stage_total=1.0), mixed,
        timing_threshold=0.25,
    )
    assert diff.regressions == []
    assert any("batched" in note for note in diff.notes)


def test_batched_same_engine_timings_still_gate():
    base = _engine_manifest("batched", stage_total=1.0)
    new = _engine_manifest("batched", stage_total=5.0)
    diff = compare_manifests(base, new, timing_threshold=0.25)
    assert diff.notes == []
    assert any(d.kind == "timing" for d in diff.regressions)


def test_batched_cross_engine_counter_drift_still_gates():
    base = _engine_manifest("fast", counters={"netsim.flits_forwarded": 1000})
    new = _engine_manifest(
        "batched", counters={"netsim.flits_forwarded": 1500}
    )
    diff = compare_manifests(base, new, metric_threshold=0.1)
    assert "netsim.flits_forwarded" in {d.name for d in diff.regressions}


def test_cycles_per_sec_gauges_reported_never_gated():
    base = _engine_manifest("fast", cps=2.0e5)
    new = _engine_manifest("fast", cps=0.5e5)  # 4x throughput drop
    diff = compare_manifests(base, new)
    gauges = [d for d in diff.deltas if d.kind == "gauge"]
    assert [g.name for g in gauges] == ["netsim.cycles_per_sec/fast"]
    assert not any(g.regression for g in gauges)
