"""N-run trend gating over the ledger: the acceptance contract.

Two pins anchor this file: a synthetic ledger with a >=30% engine
cycles/sec drop across three runs must make ``runs trend --gate`` (and
``runs gate``) exit 1, while an all-flat ledger exits 0; and both the
ASCII trend table and the HTML fleet dashboard must render
byte-identically from the same fixture ledger — no timestamps, no
randomness, no iteration-order leaks.
"""

from pathlib import Path

import pytest

from repro.experiments.runner import main as runner_main
from repro.obs.ledger import (
    LEDGER_FORMAT,
    LEDGER_SCHEMA_VERSION,
    append_entries,
    bench_entries,
    entry_id,
)
from repro.obs.trend import analyze_entries, main as runs_main
from repro.report import trend_dashboard_html, trend_table

pytestmark = pytest.mark.obs


def _entry(i, *, timing=None, cps=None, counter=None, engines=("fast",),
           experiment="fig9", scale="small", host="ci", kind="manifest"):
    """One synthetic ledger entry; ``i`` orders the series in time."""
    metrics = {}
    if timing is not None:
        metrics["timing/experiment.stage"] = float(timing)
    if cps is not None:
        metrics["gauge/netsim.cycles_per_sec/fast"] = float(cps)
    if counter is not None:
        metrics["counter/netsim.flits_forwarded"] = float(counter)
    entry = {
        "format": LEDGER_FORMAT,
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": kind,
        "experiment": experiment,
        "scale": scale,
        "host": host,
        "engines": sorted(engines),
        "created_at": f"2026-08-01T00:00:{i:02d}+00:00",
        "metrics": metrics,
    }
    entry["id"] = entry_id(entry)
    return entry


def _timing_series(values, **kw):
    return [_entry(i, timing=v, **kw) for i, v in enumerate(values)]


def _cps_series(values, **kw):
    return [_entry(i, cps=v, **kw) for i, v in enumerate(values)]


# ------------------------------------------------------- gating rules

def test_timing_latest_above_median_gates():
    report = analyze_entries(_timing_series([1.0, 1.0, 1.5]))
    (trend,) = report.regressions
    assert trend.metric == "timing/experiment.stage"
    assert trend.baseline == 1.0 and trend.latest == 1.5


def test_timing_noise_floor_suppresses_fast_stages():
    report = analyze_entries(_timing_series([0.01, 0.01, 0.04]))
    assert report.regressions == []
    # The same relative jump above the floor gates.
    assert analyze_entries(_timing_series([0.1, 0.1, 0.4])).regressions


def test_sustained_timing_changepoint_gates():
    # Latest vs whole-window median passes (1.5 <= 1.25 * 1.25), but the
    # sustained step at run 2 must still gate.
    report = analyze_entries(_timing_series([1.0, 1.0, 1.5, 1.5]))
    (trend,) = report.regressions
    assert trend.changepoint == 2
    assert trend.note == "changepoint at run 2"


def test_cycles_per_sec_gates_downward():
    # The acceptance pin: a >=30% throughput drop across 3 runs gates.
    report = analyze_entries(_cps_series([1.0e5, 1.0e5, 0.6e5]))
    (trend,) = report.regressions
    assert trend.metric == "gauge/netsim.cycles_per_sec/fast"
    # ...and a throughput *improvement* never gates.
    assert analyze_entries(_cps_series([1.0e5, 1.0e5, 2.0e5])).regressions == []


def test_sustained_cps_changepoint_gates():
    report = analyze_entries(
        _cps_series([100e3, 100e3, 70e3, 70e3, 70e3])
    )
    (trend,) = report.regressions
    assert trend.changepoint == 2
    assert trend.shift == pytest.approx(-0.3)


def test_counters_gate_only_with_metric_threshold():
    entries = [_entry(i, counter=c) for i, c in enumerate([1000, 1000, 1300])]
    assert analyze_entries(entries).regressions == []
    report = analyze_entries(entries, metric_threshold=0.1)
    (trend,) = report.regressions
    assert trend.metric == "counter/netsim.flits_forwarded"
    # Either direction: a counter dropping is as suspicious.
    down = [_entry(i, counter=c) for i, c in enumerate([1000, 1000, 700])]
    assert analyze_entries(down, metric_threshold=0.1).regressions


def test_short_series_never_gate():
    report = analyze_entries(_timing_series([1.0, 5.0]))
    assert report.trends and report.regressions == []
    # min_runs is tunable: with min_runs=2 the same series gates.
    assert analyze_entries(_timing_series([1.0, 5.0]), min_runs=2).regressions


def test_window_trims_old_history():
    values = [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert analyze_entries(_timing_series(values)).regressions
    report = analyze_entries(_timing_series(values), window=3)
    assert report.regressions == []
    (trend,) = report.trends
    assert trend.values == (1.0, 1.0, 1.0)


def test_engine_tiers_trend_apart():
    # A batched run is a series of its own: it never gates against a
    # fast-engine baseline, and it does not waive the fast series.
    entries = _timing_series([1.0, 1.0], engines=("fast",))
    entries.append(_entry(2, timing=5.0, engines=("batched",)))
    report = analyze_entries(entries)
    assert report.n_series == 2
    assert report.regressions == []
    entries.append(_entry(3, timing=5.0, engines=("fast",)))
    (trend,) = analyze_entries(entries).regressions
    assert trend.values == (1.0, 1.0, 5.0)
    assert trend.label.endswith("/fast")


def test_metric_filter_narrows_analysis():
    entries = [
        _entry(i, timing=t, cps=c)
        for i, (t, c) in enumerate([(1.0, 1e5), (1.0, 1e5), (1.5, 0.5e5)])
    ]
    report = analyze_entries(entries, metric_filter="cycles_per_sec")
    assert {t.metric for t in report.trends} == {
        "gauge/netsim.cycles_per_sec/fast"
    }


def test_series_are_host_scoped():
    # The same experiment on two hosts trends independently: a fast host
    # never sets the baseline for a slow one.
    entries = _timing_series([1.0, 1.0, 1.0], host="a")
    entries += _timing_series([5.0, 5.0, 5.0], host="b")
    report = analyze_entries(entries)
    assert report.n_series == 2
    assert report.regressions == []


# ------------------------------------------------------------------ CLI

def _write_ledger(tmp_path, entries, name="ledger.jsonl"):
    path = tmp_path / name
    append_entries(path, entries)
    return str(path)


def test_cli_gates_injected_cps_regression(tmp_path, capsys):
    """Acceptance pin: injected >=30% cycles/sec drop -> exit 1."""
    path = _write_ledger(
        tmp_path, _cps_series([1.0e5, 1.0e5, 0.6e5])
    )
    assert runs_main(["trend", "--gate", "--ledger", path]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "cycles_per_sec" in out
    # `runs gate` is the same check spelled for CI.
    assert runs_main(["gate", "--ledger", path]) == 1
    # Without --gate the trend table still reports but exits 0.
    assert runs_main(["trend", "--ledger", path]) == 0


def test_cli_all_flat_ledger_exits_zero(tmp_path, capsys):
    """Acceptance pin: a flat trajectory passes the gate."""
    entries = [
        _entry(i, timing=1.0, cps=1.0e5, counter=1000) for i in range(4)
    ]
    path = _write_ledger(tmp_path, entries)
    assert runs_main(["gate", "--ledger", path]) == 0
    assert runs_main(["trend", "--gate", "--ledger", path]) == 0
    assert "no trend regressions" in capsys.readouterr().out


def test_cli_exit_two_without_entries(tmp_path, capsys):
    missing = str(tmp_path / "absent.jsonl")
    assert runs_main(["gate", "--ledger", missing]) == 2
    assert "no ledger entries" in capsys.readouterr().err


def test_cli_merges_multiple_ledgers(tmp_path):
    # Seed ledger (2 flat runs) + fresh ledger (1 regressed run) compose
    # into one gateable series — the CI trend-gate shape.
    seed = _write_ledger(tmp_path, _cps_series([1.0e5, 1.0e5]), "seed.jsonl")
    fresh = _write_ledger(
        tmp_path, [_entry(2, cps=0.6e5)], "fresh.jsonl"
    )
    assert runs_main(["gate", "--ledger", seed, "--ledger", fresh]) == 1
    assert runs_main(["gate", "--ledger", seed]) == 0


SEED_LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "LEDGER_seed.jsonl"


def _fast_cycles_export(day, mean):
    """A pytest-benchmark export of one fast-engine cycle-loop row."""
    return {
        "datetime": f"2026-09-0{day}T00:00:00+00:00",
        "machine_info": {"node": "vm"},
        "benchmarks": [{
            "name": "test_perf_simulator_cycles",
            "stats": {"mean": mean, "min": mean},
            "extra_info": {"engines": ["fast"]},
        }],
    }


def test_seed_ledger_gates_a_fast_engine_slowdown(tmp_path, capsys):
    # The committed trajectory gates clean and waives nothing...
    assert runs_main(["gate", "--ledger", str(SEED_LEDGER)]) == 0
    assert "NOTE:" not in capsys.readouterr().out
    # ...and two more fast-engine cycle runs, one at the committed
    # fast-engine mean (50.5 ms) and one at twice it, gate the fast tier.
    fresh = tmp_path / "fresh.jsonl"
    append_entries(
        fresh,
        bench_entries(_fast_cycles_export(1, 0.0505))
        + bench_entries(_fast_cycles_export(2, 0.101)),
    )
    assert runs_main(
        ["gate", "--ledger", str(SEED_LEDGER), "--ledger", str(fresh)]
    ) == 1
    rows = [
        [cell.strip() for cell in line.split("|")]
        for line in capsys.readouterr().out.splitlines()
        if "REGRESSION" in line
    ]
    assert ["test_perf_simulator_cycles@vm/fast", "timing/mean"] in [
        row[:2] for row in rows
    ]


def test_cli_list_and_show(tmp_path, capsys):
    entries = _timing_series([1.0, 2.0])
    path = _write_ledger(tmp_path, entries)
    assert runs_main(["list", "--ledger", path]) == 0
    out = capsys.readouterr().out
    assert entries[0]["id"][:12] in out and "fig9" in out

    assert runs_main(["show", entries[0]["id"][:8], "--ledger", path]) == 0
    assert '"experiment": "fig9"' in capsys.readouterr().out

    assert runs_main(["show", "nope", "--ledger", path]) == 2
    assert "no entry" in capsys.readouterr().err
    # Both entries share every prefix of length 0 with each other? No —
    # an ambiguous prefix is the empty string.
    assert runs_main(["show", "", "--ledger", path]) == 2
    assert "ambiguous" in capsys.readouterr().err


def test_runs_cli_reachable_through_runner(tmp_path, capsys):
    path = _write_ledger(tmp_path, _timing_series([1.0, 1.0, 1.0]))
    assert runner_main(["runs", "gate", "--ledger", path]) == 0
    assert "no trend regressions" in capsys.readouterr().out


def test_cli_export_csv_is_pinned(tmp_path, capsys):
    """``runs export --csv``: fixed column order, one row per metric."""
    entries = [
        _entry(0, timing=1.5, cps=2.0e5),
        _entry(1, timing=0.25, experiment="bench_yen", kind="bench",
               scale="bench", host="vm", engines=()),
    ]
    path = _write_ledger(tmp_path, entries)
    assert runs_main(["export", "--csv", "--ledger", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == (
        "id,created_at,kind,experiment,scale,host,engines,"
        "batch_lanes,seed,metric,value"
    )
    # One row per (entry, metric), metrics sorted by name within entry.
    assert len(lines) == 1 + 3
    assert lines[1] == (
        f"{entries[0]['id']},2026-08-01T00:00:00+00:00,manifest,fig9,"
        "small,ci,fast,,,gauge/netsim.cycles_per_sec/fast,200000.0"
    )
    assert lines[2].endswith("timing/experiment.stage,1.5")
    assert lines[3] == (
        f"{entries[1]['id']},2026-08-01T00:00:01+00:00,bench,bench_yen,"
        "bench,vm,,,,timing/experiment.stage,0.25"
    )

    # --out writes the same bytes to a file.
    out_file = tmp_path / "sub" / "runs.csv"
    assert runs_main(
        ["export", "--csv", "--ledger", path, "--out", str(out_file)]
    ) == 0
    assert out_file.read_text() == out


# ------------------------------------------------------- determinism

def _fixture_entries():
    entries = [
        _entry(i, timing=t, cps=c, counter=1000)
        for i, (t, c) in enumerate(
            [(1.0, 1.0e5), (1.1, 0.9e5), (1.0, 1.0e5), (1.6, 0.6e5)]
        )
    ]
    entries += [
        _entry(10 + i, timing=v, experiment="bench_yen", kind="bench",
               scale="bench", host="vm")
        for i, v in enumerate([0.2, 0.21, 0.2])
    ]
    return entries


def test_ascii_renders_are_byte_deterministic():
    entries = _fixture_entries()
    reports = [analyze_entries(entries) for _ in range(2)]
    a, b = (trend_table(r, show_all=True) for r in reports)
    assert a == b
    assert "REGRESSION" in a
    # Sparklines are part of the stable output.
    assert any(ch in a for ch in "▁▂▃▄▅▆▇█")


def test_html_dashboard_is_byte_deterministic(tmp_path):
    entries = _fixture_entries()
    report = analyze_entries(entries)
    a = trend_dashboard_html(report, entries)
    b = trend_dashboard_html(analyze_entries(list(entries)), entries)
    assert a == b
    assert a.startswith("<!DOCTYPE html>")
    assert "cycles_per_sec" in a and "REGRESSION" in a
    # Self-contained: no external scripts or stylesheets.
    assert "http://" not in a and "https://" not in a

    # The CLI writes exactly this render.
    path = _write_ledger(tmp_path, entries)
    out = tmp_path / "dash" / "fleet.html"
    assert runs_main(
        ["dashboard", "--ledger", path, "--out", str(out)]
    ) == 0
    assert out.read_text() == a
