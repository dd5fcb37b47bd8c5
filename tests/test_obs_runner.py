"""The telemetry-enabled CLI path: flags, manifest files, event logs."""

import json

import pytest

from repro.experiments.runner import main
from repro.obs import log, metrics

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _obs_state():
    level = log.get_level()
    yield
    log.set_level(level)
    log.close_jsonl()
    metrics.disable()


def test_runner_without_telemetry_stays_silent(capsys):
    assert main(["table1", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "stage timings" not in out
    assert metrics.snapshot() is None


def test_runner_writes_manifest_and_event_log(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    assert main([
        "table1", "--scale", "small",
        "--telemetry-dir", str(out_dir), "--log-level", "info",
    ]) == 0

    manifest = json.loads((out_dir / "table1-small.manifest.json").read_text())
    assert manifest["format"] == "repro-manifest-v1"
    assert manifest["experiment"] == "table1"
    assert manifest["scale"] == "small"
    assert manifest["config"]["processes"] == 1
    assert "experiment.table1" in manifest["stage_timings"]
    assert manifest["wall_time_s"] >= 0

    events = [
        json.loads(line)
        for line in (out_dir / "table1-small.events.jsonl").read_text().splitlines()
    ]
    names = [e["event"] for e in events]
    assert "experiment_start" in names
    assert "experiment_done" in names
    assert "manifest_written" in names

    printed = capsys.readouterr().out
    assert "stage timings" in printed
    assert "# manifest:" in printed

    # The registry is torn down after the run.
    assert metrics.snapshot() is None


def test_runner_telemetry_scoped_per_experiment(tmp_path):
    out_dir = tmp_path / "tel"
    assert main([
        "table1", "table2", "--scale", "small", "--telemetry-dir", str(out_dir),
    ]) == 0
    for name in ("table1", "table2"):
        doc = json.loads((out_dir / f"{name}-small.manifest.json").read_text())
        assert doc["experiment"] == name
        # Each manifest holds only its own experiment's span.
        spans = [k for k in doc["stage_timings"] if k.startswith("experiment.")]
        assert spans == [f"experiment.{name}"]


def test_timeseries_flag_requires_telemetry_dir():
    with pytest.raises(SystemExit):
        main(["table1", "--timeseries-window", "100"])


def test_timeseries_window_must_be_positive(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "table1", "--telemetry-dir", str(tmp_path),
            "--timeseries-window", "0",
        ])


@pytest.mark.parametrize(
    "flags", [["--processes", "0"], ["--seed", "-1"]], ids=["processes", "seed"]
)
def test_out_of_range_numeric_flag_is_a_usage_error(flags):
    with pytest.raises(SystemExit) as exc:
        main(["table1", *flags])
    assert exc.value.code == 2


def test_unknown_experiment_id_runs_nothing(capsys):
    # A typo in the last id must not cost the runs before it.
    with pytest.raises(SystemExit) as exc:
        main(["table1", "fig99", "--scale", "small"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'fig99'" in captured.err and "table1" in captured.err


def _tiny_sim_experiment(scale="small", seed=0):
    """A seconds-fast cycle-level driver for CLI-path tests."""
    from repro import Jellyfish, PathCache
    from repro.experiments.base import ExperimentResult
    from repro.netsim import SimConfig, Simulator, UniformTraffic

    topo = Jellyfish(8, 6, 4, seed=1)
    cache = PathCache(topo, "ksp", k=2, seed=seed)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=50, n_samples=2)
    result = Simulator(
        topo, cache, "random", UniformTraffic(topo.n_hosts), 0.2,
        config=cfg, seed=seed,
    ).run()
    return ExperimentResult(
        experiment="tiny_sim",
        title="tiny cycle-level run",
        headers=["metric", "value"],
        rows=[["throughput", round(result.accepted_throughput, 3)]],
        scale=scale,
        notes="",
        data={"throughput": result.accepted_throughput},
    )


def test_runner_writes_timeseries_and_steady_report(tmp_path, capsys, monkeypatch):
    from repro.experiments import runner
    from repro.obs.timeseries import load_timeseries

    monkeypatch.setitem(runner.EXPERIMENTS, "tiny_sim", _tiny_sim_experiment)
    out_dir = tmp_path / "tel"
    assert main([
        "tiny_sim", "--scale", "small",
        "--telemetry-dir", str(out_dir), "--timeseries-window", "25",
    ]) == 0

    snap = load_timeseries(out_dir / "tiny_sim-small.timeseries.npz")
    assert snap["window"] == 25
    assert snap["n_runs"] == 1
    assert snap["n_windows"] == 8  # 200 cycles / 25

    manifest = json.loads((out_dir / "tiny_sim-small.manifest.json").read_text())
    assert manifest["config"]["timeseries_window"] == 25
    steady = manifest["steady_state"]
    assert steady["n_runs"] == 1
    assert steady["runs"][0]["warmup_cycles"] == 100
    # The 100-cycle warmup spans 4 of the 8 windows the check needs.
    assert steady["runs"][0]["warmup_sufficient"] is None
    assert steady["n_undetermined"] == 1

    printed = capsys.readouterr().out
    assert "steady state:" in printed
    assert "1 undetermined" in printed
    assert "# timeseries:" in printed


def test_capture_flags_follow_the_registry():
    from repro.experiments.runner import CAPTURE_FLAGS
    from repro.obs import layers

    assert [row[0] for row in CAPTURE_FLAGS] == [
        name for name in layers.LAYERS if name != "metrics"
    ]


CAPTURE_ARGS = [
    "--trace-sample", "1", "--timeseries-window", "25",
    "--linkstate", "50", "--flowstats",
]


def test_every_capture_flag_writes_its_artifact(tmp_path, capsys, monkeypatch):
    from repro.experiments import runner
    from repro.obs import layers

    monkeypatch.setitem(runner.EXPERIMENTS, "tiny_sim", _tiny_sim_experiment)
    out_dir = tmp_path / "tel"
    assert main([
        "tiny_sim", "table1", "--scale", "small",
        "--telemetry-dir", str(out_dir), "--log-level", "info", *CAPTURE_ARGS,
    ]) == 0

    names = ("trace", "timeseries", "linkstate", "flowstats")
    for name in names:
        path = out_dir / layers.artifact_name("tiny_sim-small", name)
        assert path.name == f"tiny_sim-small.{name}.npz"
        load = getattr(layers.LAYERS[name], f"load_{name}")
        assert load(path)["n_runs"] == 1
        # table1 runs no simulation: nothing recorded, so no file.
        assert not (out_dir / f"table1-small.{name}.npz").exists()

    events = [
        json.loads(line)["event"]
        for line in (out_dir / "tiny_sim-small.events.jsonl").read_text().splitlines()
    ]
    written = [f"{name}_written" for name in names]
    assert [e for e in events if e in written] == written
    printed = capsys.readouterr().out
    assert printed.count("# inspect it: python -m repro.experiments inspect") == 1
    assert printed.count("# flow SLOs:  python -m repro.experiments flows") == 1


def test_git_commit_cached_per_process(monkeypatch):
    import subprocess

    from repro.obs import manifest as obs_manifest

    calls = {"n": 0}
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls["n"] += 1
        return real_run(*args, **kwargs)

    obs_manifest._git_commit.cache_clear()
    monkeypatch.setattr(obs_manifest.subprocess, "run", counting_run)
    try:
        first = obs_manifest._git_commit()
        second = obs_manifest._git_commit()
        assert first == second
        assert calls["n"] == 1  # the subprocess forked exactly once
    finally:
        obs_manifest._git_commit.cache_clear()


def test_profile_flag_requires_telemetry_dir(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "--scale", "small", "--profile"])
    assert "--profile requires --telemetry-dir" in capsys.readouterr().err


def test_profile_writes_pstats_next_to_manifest(tmp_path, capsys):
    import pstats

    out_dir = tmp_path / "tel"
    assert main([
        "table1", "--scale", "small",
        "--telemetry-dir", str(out_dir), "--profile",
    ]) == 0

    dump = out_dir / "table1-small.profile.pstats"
    assert dump.exists()
    stats = pstats.Stats(str(dump))  # the dump is a loadable pstats file
    assert stats.total_calls > 0

    manifest = json.loads((out_dir / "table1-small.manifest.json").read_text())
    assert manifest["profile"] == str(dump)
    assert manifest["config"]["profile"] is True

    out = capsys.readouterr().out
    assert "profile hotspots" in out
    assert "# profile:" in out


def test_unprofiled_manifest_has_no_profile_key(tmp_path):
    out_dir = tmp_path / "tel"
    assert main([
        "table1", "--scale", "small", "--telemetry-dir", str(out_dir),
    ]) == 0
    manifest = json.loads((out_dir / "table1-small.manifest.json").read_text())
    assert "profile" not in manifest


def test_path_store_round_trip_through_cli(tmp_path, capsys, monkeypatch):
    from repro.experiments import tables234

    # The per-process report memo would skip the store on the second run.
    monkeypatch.setattr(tables234, "_REPORT_CACHE", {})
    store_dir = tmp_path / "store"

    def run(tel):
        assert main([
            "table2", "--scale", "small", "--path-store", str(store_dir),
            "--telemetry-dir", str(tmp_path / tel),
        ]) == 0
        manifest = json.loads(
            (tmp_path / tel / "table2-small.manifest.json").read_text()
        )
        table = capsys.readouterr().out.split("\nstage timings")[0]
        return manifest["metrics"]["counters"], table

    cold, cold_table = run("t1")
    assert cold["core.store.load_miss"] == 12
    assert len(list(store_dir.glob("arena-*.npz"))) == 12

    tables234._REPORT_CACHE.clear()
    warm, warm_table = run("t2")
    assert warm["core.store.load_hit"] == 12
    assert "core.cache.miss" not in warm
    assert warm_table == cold_table
    assert "RRG(12,10,7)" in warm_table
