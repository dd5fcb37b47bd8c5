"""``benchmarks/compare.py``, the benchmark-export gate of CI's perf smoke.

CI reads exit 1 as "a gated row got slower", so that is all it may
mean: an unreadable export or a bad argument exits 2 with one line on
stderr naming the problem, never a traceback.
"""

import json

import pytest

from repro.obs.manifest import build_manifest

BASE = {"test_perf_yen_k8": 0.001, "test_perf_fairshare_waterfill": 0.01}


def _export(means):
    return {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean, "min": mean}}
            for name, mean in means.items()
        ]
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _row(out, name):
    (line,) = [line for line in out.splitlines() if line.startswith(name + " ")]
    return line


def test_gated_row_slowdown_fails(bench_compare, tmp_path, capsys):
    base = _write(tmp_path, "base.json", _export(BASE))
    new = _write(tmp_path, "new.json", _export(dict(BASE, test_perf_yen_k8=0.005)))
    assert bench_compare.main([new, base]) == 1
    out, err = capsys.readouterr()
    assert _row(out, "test_perf_yen_k8").endswith(" REGRESSION")
    assert "test_perf_yen_k8: 5.00x" in err


def test_ungated_row_slowdown_only_warns(bench_compare, tmp_path, capsys):
    base = _write(tmp_path, "base.json", _export(BASE))
    slower = dict(BASE, test_perf_fairshare_waterfill=0.05)
    new = _write(tmp_path, "new.json", _export(slower))
    assert bench_compare.main([new, base]) == 0
    out = capsys.readouterr().out
    assert _row(out, "test_perf_fairshare_waterfill").endswith(" (slower, not gated)")
    assert "no gated regressions" in out


def test_identical_exports_pass(bench_compare, tmp_path, capsys):
    base = _write(tmp_path, "base.json", _export(BASE))
    new = _write(tmp_path, "new.json", _export(BASE))
    assert bench_compare.main([new, base]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out and "slower" not in out


@pytest.mark.parametrize(
    "rows, code",
    [
        (("slow", "fast", "4.0"), 0),   # 5x achieved
        (("slow", "fast", "6.0"), 1),
        (("slow", "absent", "1.0"), 2),
    ],
)
def test_require_speedup(bench_compare, tmp_path, rows, code):
    export = _write(tmp_path, "x.json", _export({"slow": 0.5, "fast": 0.1}))
    assert bench_compare.main([export, "--require-speedup", *rows]) == code


def test_manifest_goes_to_compare_runs(bench_compare, tmp_path, capsys):
    manifest = build_manifest(
        experiment="fig9", scale="small", seed=0, wall_time_s=1.0,
        metrics_snapshot={"timers": {"experiment.fig9": {"count": 1, "total": 1.0}}},
    )
    new = _write(tmp_path, "fig9.manifest.json", manifest)
    base = _write(tmp_path, "base.json", _export(BASE))
    assert bench_compare.main([new, base]) == 2
    assert "compare-runs" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing", "truncated"])
@pytest.mark.parametrize("given_as", ["new", "baseline", "ledger"])
def test_unreadable_export_exits_two(bench_compare, tmp_path, capsys, damage, given_as):
    good = _write(tmp_path, "good.json", _export(BASE))
    bad = tmp_path / "bad.json"
    if damage == "truncated":
        bad.write_text(json.dumps(_export(BASE))[:40])
    argv = {
        "new": [str(bad), good],
        "baseline": [good, str(bad)],
        "ledger": [str(bad), "--ledger", str(tmp_path / "runs.jsonl"), "--ledger-only"],
    }[given_as]
    assert bench_compare.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(bad) in err[0]


def test_require_speedup_ratio_must_be_a_number(bench_compare, tmp_path, capsys):
    export = _write(tmp_path, "x.json", _export({"slow": 0.5, "fast": 0.1}))
    with pytest.raises(SystemExit) as exc:
        bench_compare.main([export, "--require-speedup", "slow", "fast", "x"])
    assert exc.value.code == 2
    assert "RATIO" in capsys.readouterr().err
