"""Tests of the end-to-end benchmark's own code (not of the program).

Run with ``python -m pytest benchmarks/e2e/test_bench.py -q``.  Nothing
here runs a workload: children are replaced by canned results.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


import checks  # noqa: E402  (this directory, first on sys.path under pytest)
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

trace = workloads.load_trace_module()

BENCH, SPEC = run.load_config()
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def _pinned(workload):
    return json.loads(json.dumps(SPEC["expected"][workload]["seeds"]["0"]))


def _seed0_outputs(workload):
    out = _pinned(workload)
    if workload == "grid_forensics":
        out["artifacts_reload"] = {"linkstate": True, "flowstats": True, "timeseries": True}
    if workload == "pathtables_720":
        warm = json.loads(json.dumps(out["cold"]))
        warm["computed"] = {s: 0 for s in warm["computed"]}
        out["warm"] = warm
    return out


# ------------------------------------------------------------ metric names
def test_declared_names_are_valid_and_unique():
    names = END_TO_END + PER_LAYER + [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(END_TO_END + PER_LAYER) == len(set(END_TO_END + PER_LAYER))
    assert "setup_s" in END_TO_END
    assert set(SPEC["layer_map"]) == set(PER_LAYER)
    assert set(SPEC["workloads"]) == {w["name"] for w in BENCH["workloads"]}


def test_layer_metrics_from_spans_are_declared():
    assert set(trace.layer_metrics([])) <= set(PER_LAYER)


def _fake_child(workload, seed, traced_layers):
    """A stand-in for run._child returning canned, correct lines."""
    clock = iter(range(10**6))

    def child(w, s, phase, work_dir, deadline, spans=None, run_id="run"):
        line = {"ready_at": 0.0, "phase": phase, "host_factor": 1.0}
        if phase == "setup":
            return line, 0.25 + 0.001 * next(clock), None
        outputs = _seed0_outputs(workload)
        if workload == "pathtables_720":
            outputs = outputs["warm" if phase == "warm" else "cold"]
        line.update(wall_s=1.0, peak_rss_mb=50.0, outputs=outputs)
        if spans is not None:
            line.update(layers=dict(traced_layers), coverage=0.99, self_s={})
        return line, 0.3, None

    return child


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("mode", [0, 1])
def test_run_emits_exactly_the_declared_metrics(monkeypatch, tmp_path, workload, mode):
    layers = trace.layer_metrics([])
    monkeypatch.setattr(run, "_child", _fake_child(workload, 0, layers))
    monkeypatch.setattr(run, "WORK", tmp_path)
    rec = run.run_workload(workload, 0, 0.0, mode, BENCH, SPEC)
    assert rec["correct"], rec["errors"]
    want = PER_LAYER if mode else END_TO_END
    assert sorted(rec["metrics"]) == sorted(want)
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for name, m in rec["metrics"].items():
        assert NAME.match(name)
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))
    if not mode:
        assert len(rec["samples"]["setup_s"]) >= run.SETUP_SAMPLES


# ------------------------------------------------------ host correction
#: A stand-in program: ``reps`` gathers of 200k random elements from an
#: array of ``size`` bytes; prints the seconds they took.
_GATHER = """
import sys, time
import numpy as np
reps, size = int(sys.argv[1]), int(sys.argv[2])
data = np.ones(size // 8)
idx = np.random.default_rng(0).integers(data.size, size=200_000)
t = time.perf_counter()
for _ in range(reps):
    data[idx].sum()
print(time.perf_counter() - t)
"""


def _corrected(reps, size):
    """Host-corrected seconds of one stand-in child."""
    proc, out, err, pieces = run.sampled_run(
        [sys.executable, "-c", _GATHER, str(reps), str(size)], float("inf")
    )
    assert proc.returncode == 0, err
    return float(out.split()[-1]) * run.REFERENCE_PIECE_S / statistics.fmean(pieces)


def test_host_correction_keeps_a_slowdown_in_the_program():
    # Three alternations of the stand-in program: as is, with twice the
    # work, and with a working set far beyond the caches; medians, so that
    # the host's drift favours none of them.
    runs = {"base": [], "double": [], "big": []}
    for _ in range(3):
        runs["base"].append(_corrected(1000, 64 << 10))
        runs["double"].append(_corrected(2000, 64 << 10))
        runs["big"].append(_corrected(1000, 64 << 20))
    cor = {k: statistics.median(v) for k, v in runs.items()}
    # Twice the work reads about twice the time after correction.
    assert 1.6 < cor["double"] / cor["base"] < 2.5
    # The large working set makes the program four to five times slower,
    # and the pieces timed beside it only about 4% slower, so the
    # correction keeps the slowdown.
    assert cor["big"] / cor["base"] > 2.5


# ---------------------------------------------------------------- spans
def _span(name, start, end, sid, parent):
    return trace.Span(name, start, end, sid, parent, "r")


def test_self_time_subtracts_children_once():
    spans = [
        _span("outer", 0.0, 10.0, 1, 0),
        _span("a", 1.0, 3.0, 2, 1),
        _span("b", 2.0, 5.0, 3, 1),  # overlaps a: the union counts once
        _span("c", 6.0, 7.0, 4, 1),
        _span("grand", 6.2, 6.8, 5, 4),  # only c's self time shrinks
    ]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0 - 0.6)
    assert own[5] == pytest.approx(0.6)
    assert trace.covered_time(spans, 0.0, 20.0) == pytest.approx(10.0)
    # Without overlapping siblings (one thread), self times add up to the
    # covered time.
    nested = [s for s in spans if s.name != "b"]
    split = trace.self_time_split(nested)
    assert sum(split.values()) == pytest.approx(trace.covered_time(nested, 0.0, 20.0))
    assert split["outer"] == pytest.approx(7.0)


def test_tracer_wraps_nests_and_restores():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer

    class Box:
        def get(self):
            return mod.outer(1)

    tracer = trace.Tracer("run-1")
    tracer.wrap(mod, "inner", "layer.inner", after=lambda a, k, r, t: {"r": r})
    tracer.wrap(mod, "outer", "layer.outer")
    tracer.wrap(Box, "get", "layer.box")
    assert Box().get() == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["layer.box"].parent_id == 0
    assert by_name["layer.outer"].parent_id == by_name["layer.box"].span_id
    assert by_name["layer.inner"].parent_id == by_name["layer.outer"].span_id
    assert by_name["layer.inner"].attrs == {"r": 2}
    assert {s.run_id for s in tracer.spans} == {"run-1"}
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert "get" in vars(Box) and Box().get() == 4
    assert len(tracer.spans) == 3


def test_layer_metrics_tail_and_counts():
    runs = [_span("netsim.run", i, i + 0.001 * (i + 1), i + 1, 0) for i in range(30)]
    for s in runs:
        s.attrs = {"delivered": 10, "saturated": 0, "lanes": 1}
    runs[-1].attrs["saturated"] = 1
    m = trace.layer_metrics(runs)
    assert m["netsim.runs"] == 30 and m["netsim.rungs"] == 30
    assert m["netsim.saturated_runs"] == 1
    assert m["netsim.packets_delivered"] == 300
    durations = sorted(s.duration for s in runs)
    # 1 - 10/30 quantile: exactly ten samples lie beyond it.
    assert sum(d > m["netsim.run_s.tail"] for d in durations) == 10
    assert m["netsim.run_s.p50"] == pytest.approx((durations[14] + durations[15]) / 2)


# --------------------------------------------------------------- checks
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_pinned_outputs_pass(workload):
    shape = workloads.SHAPES[workload]
    assert checks.check_outputs(workload, 0, _seed0_outputs(workload), SPEC, shape) == []


def _flagged(workload, seed, outputs):
    return checks.check_outputs(workload, seed, outputs, SPEC, workloads.SHAPES[workload])


def test_perturbed_outputs_are_flagged():
    out = _seed0_outputs("fig9_sweep")
    out["throughput"]["redksp"]["ksp_adaptive"] = 0.8
    assert _flagged("fig9_sweep", 0, out)
    out = _seed0_outputs("fig9_sweep")
    out["throughput"]["redksp"]["random"] = 0.75  # off the rung grid
    assert _flagged("fig9_sweep", 3, out)

    out = _seed0_outputs("stencil_table5")
    out["makespan_ms"]["ksp"]["2dnn"] *= 1 + 1e-6
    assert _flagged("stencil_table5", 0, out)
    out = _seed0_outputs("stencil_table5")
    out["makespan_ms"]["ksp"]["2dnn"] *= 1 + 1e-12  # within the solver tolerance
    assert not _flagged("stencil_table5", 0, out)
    out["makespan_ms"]["rksp"]["3dnn"] = 0.0
    assert _flagged("stencil_table5", 4, out)

    out = _seed0_outputs("grid_forensics")
    out["artifacts_reload"]["flowstats"] = False
    assert _flagged("grid_forensics", 0, out)
    out = _seed0_outputs("grid_forensics")
    out["recorder_runs"]["linkstate"] = 11
    assert _flagged("grid_forensics", 2, out)

    out = _seed0_outputs("pathtables_720")
    out["warm"]["report"]["rksp"]["max_link_sharing"] = 7
    assert _flagged("pathtables_720", 5, out)
    out = _seed0_outputs("pathtables_720")
    out["warm"]["computed"]["redksp"] = 3
    assert _flagged("pathtables_720", 5, out)
    out = _seed0_outputs("pathtables_720")
    for part in ("cold", "warm"):
        out[part]["report"]["redksp"]["fraction_disjoint_pairs"] = 0.99
    assert _flagged("pathtables_720", 5, out)


def test_wrong_output_fails_the_run(monkeypatch, tmp_path):
    child = _fake_child("fig9_sweep", 0, {})

    def wrong(*args, **kwargs):
        line, setup_s, err = child(*args, **kwargs)
        if "outputs" in line:
            line["outputs"]["throughput"]["redksp"]["ugal"] = 0.9
        return line, setup_s, err

    monkeypatch.setattr(run, "_child", wrong)
    monkeypatch.setattr(run, "WORK", tmp_path)
    rec = run.run_workload("fig9_sweep", 0, 0.0, 0, BENCH, SPEC)
    assert not rec["correct"] and rec["failed"] >= 1


def test_fig9_time_is_scaled_to_the_full_ladder():
    # Seed 0's row needs 39 rungs (9+10+6+6+8) of the 50.
    assert workloads.fig9_work_scale(_seed0_outputs("fig9_sweep")) == pytest.approx(50 / 39)
    full = {"throughput": {s: dict.fromkeys(checks.FIG9_MECHANISMS, 1.0)
                           for s in checks.FIG9_SCHEMES}}
    assert workloads.fig9_work_scale(full) == 1.0


def test_repeats_must_agree():
    a = {"x": 1.0}
    assert checks.same_across_repeats([a, dict(a), {"x": 1.5}]) == {
        2: "outputs differ from the run's first execution"
    }


# -------------------------------------------------------------- compare
def test_compare_verdicts():
    same = [1.0, 1.01, 0.99, 1.005, 0.995, 1.0, 1.002, 0.998, 1.01, 0.99]
    assert compare.verdict(same, 0.1, "lower") == "same"
    assert compare.verdict([r * 1.2 for r in same], 0.1, "lower") == "worse"
    assert compare.verdict([r * 0.8 for r in same], 0.1, "lower") == "better"
    assert compare.verdict([r * 0.8 for r in same], 0.1, "higher") == "worse"
    noisy = [0.5, 1.5, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, 0.1, "lower") == "unresolved"
    # Noisy, but better on every seed.
    assert compare.verdict([r * 0.5 for r in noisy], 0.1, "lower") == "better"


def _set_file(path, walls, seed0=0):
    runs = [
        {"workload": "fig9_sweep", "seed": seed0 + i, "trace": 0, "correct": True,
         "errors": [], "samples": {"wall_s": [w * 0.9]}, "metrics": {
             "setup_s": {"value": 0.3, "unit": "s"},
             "wall_ref_s": {"value": w, "unit": "s"},
             "peak_rss_mb": {"value": 70.0, "unit": "MB"}}}
        for i, w in enumerate(walls)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_pairs_runs_by_seed(tmp_path, capsys):
    # The work depends on the seed (14 s to 20 s here); paired by seed,
    # the sets agree.
    walls = [14.0, 19.0, 18.5, 17.0, 17.5, 18.8, 19.2, 18.0, 19.1, 19.6]
    a = _set_file(tmp_path / "a.json", walls)
    b = _set_file(tmp_path / "b.json", [w * 1.01 for w in walls])
    assert compare.main([a, b]) == 0
    slower = _set_file(tmp_path / "c.json", [w * 1.3 for w in walls])
    assert compare.main([a, slower]) == 1
    assert "worse" in capsys.readouterr().out
    # The raw time is reported, not judged.
    drifted = _set_file(tmp_path / "e.json", walls)
    doc = json.loads((tmp_path / "e.json").read_text())
    for run_ in doc["runs"]:
        run_["samples"]["wall_s"] = [run_["samples"]["wall_s"][0] * 1.5]
    (tmp_path / "e.json").write_text(json.dumps(doc))
    assert compare.main([a, drifted]) == 0
    assert "report" in capsys.readouterr().out
    # Sets with no seed in common cannot be compared.
    other = _set_file(tmp_path / "d.json", walls, seed0=100)
    assert compare.main([a, other]) == 1
    # A set measured in parts, one seed per file, reads as one set.
    parts = tmp_path / "parts"
    parts.mkdir()
    for i, w in enumerate(walls):
        _set_file(parts / f"seed{i}.json", [w * 1.01], seed0=i)
    assert compare.main([a, str(parts)]) == 0


# ------------------------------------------------------- missing program
def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig9_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
