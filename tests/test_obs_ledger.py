"""The persistent run ledger: distillation, dedup, atomic appends.

The ledger is the cross-run half of the observability stack, so two
contracts are pinned hard here: entries are content-hash-deduplicated
(re-ingesting the same manifest or benchmark export is a no-op), and the
append path is safe under concurrent writers — the hammer test mirrors
``run_saturation_grid --processes`` by appending from several processes
at once and asserts no entry is lost, torn, or duplicated.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments.runner import main as runner_main
from repro.obs import log, metrics
from repro.obs.ledger import (
    LEDGER_FORMAT,
    LEDGER_SCHEMA_VERSION,
    append_entries,
    bench_entries,
    default_ledger_path,
    entry_id,
    load_entries,
    manifest_entry,
    read_ledger,
    series_key,
)
from repro.obs.manifest import build_manifest

pytestmark = pytest.mark.obs


def _manifest(stage_total=1.0, engine="fast", cps=1.0e5, seed=0):
    snap = {
        "timers": {"experiment.fig9": {"count": 1, "total": stage_total}},
        "counters": {
            "netsim.flits_forwarded": 1000,
            f"netsim.engine_runs/{engine}": 3,
        },
        "gauges": {f"netsim.cycles_per_sec/{engine}": cps},
        "info": {"topology_hash": "ab" * 32},
    }
    return build_manifest(
        experiment="fig9", scale="small", seed=seed,
        wall_time_s=2.0, metrics_snapshot=snap,
    )


# ------------------------------------------------------------ distillation

def test_manifest_entry_distills_trendable_fields():
    entry = manifest_entry(_manifest())
    assert entry["format"] == LEDGER_FORMAT
    assert entry["schema_version"] == LEDGER_SCHEMA_VERSION
    assert entry["kind"] == "manifest"
    assert entry["experiment"] == "fig9"
    assert entry["engines"] == ["fast"]
    assert entry["topology_hash"] == "ab" * 32
    assert entry["metrics"]["timing/experiment.fig9"] == 1.0
    assert entry["metrics"]["gauge/netsim.cycles_per_sec/fast"] == 1.0e5
    assert entry["metrics"]["counter/netsim.flits_forwarded"] == 1000.0
    # Environment provenance rides along for per-host trend scoping.
    assert entry["host"] and entry["python"] and entry["numpy"]
    assert entry["cpu_count"] >= 1
    assert entry["id"] == entry_id(entry)


def test_bench_entries_distill_benchmark_rows():
    export = {
        "datetime": "2026-08-08T00:00:00+00:00",
        "machine_info": {
            "node": "vm", "python_version": "3.11.7", "cpu": {"count": 4},
        },
        "commit_info": {"id": "c" * 40},
        "benchmarks": [
            {"name": "test_perf_yen_k8",
             "stats": {"mean": 0.001, "min": 0.0008}},
            {"name": "test_perf_grid_batched",
             "stats": {"mean": 4.0, "min": 3.9}},
        ],
    }
    entries = bench_entries(export)
    assert [e["experiment"] for e in entries] == [
        "test_perf_yen_k8", "test_perf_grid_batched",
    ]
    for e in entries:
        assert e["kind"] == "bench"
        assert e["host"] == "vm"
        assert e["cpu_count"] == 4
        assert e["git_commit"] == "c" * 40
    assert entries[0]["metrics"] == {"timing/mean": 0.001, "timing/min": 0.0008}


def test_seed_ledger_holds_every_committed_bench_export():
    # ``runs gate`` only watches rows that reached the seed ledger, and
    # ``compare.py --ledger`` is the one way a BENCH export gets there.
    bench_dir = Path(__file__).resolve().parents[1] / "benchmarks"
    exports = sorted(bench_dir.glob("BENCH_*.json"))
    assert exports
    ledger, _ = read_ledger(bench_dir / "LEDGER_seed.jsonl")
    ids = {e["id"] for e in ledger}
    for export in exports:
        entries = bench_entries(json.loads(export.read_text()))
        missing = [e["experiment"] for e in entries if e["id"] not in ids]
        assert not missing, f"{export.name}: {missing}"


def test_entry_id_is_content_based():
    a = manifest_entry(_manifest())
    b = manifest_entry(_manifest())
    assert a["id"] == b["id"]  # identical content, identical hash
    c = manifest_entry(_manifest(stage_total=2.0))
    assert c["id"] != a["id"]
    # The hash covers everything but the id itself.
    mutated = dict(a, experiment="fig10")
    assert entry_id(mutated) != a["id"]


def test_series_key_scopes_per_host():
    a = manifest_entry(_manifest())
    assert series_key(a) == ("manifest", "fig9", "small", a["host"], "fast")
    b = dict(a, host="elsewhere")
    assert series_key(b) != series_key(a)


# --------------------------------------------------------- append / read

def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    entries = [manifest_entry(_manifest(stage_total=t)) for t in (1.0, 2.0)]
    assert append_entries(path, entries) == 2
    loaded, skipped = read_ledger(path)
    assert skipped == 0
    assert loaded == entries


def test_append_dedups_by_content_hash(tmp_path):
    path = tmp_path / "ledger.jsonl"
    entry = manifest_entry(_manifest())
    assert append_entries(path, [entry]) == 1
    # Same content again — in the same batch or a later call — is a no-op.
    assert append_entries(path, [entry, dict(entry)]) == 0
    loaded, _ = read_ledger(path)
    assert len(loaded) == 1


def test_read_skips_torn_and_foreign_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    entry = manifest_entry(_manifest())
    append_entries(path, [entry])
    with open(path, "a") as fh:
        fh.write('{"format": "something-else", "id": "x"}\n')
        fh.write('{"torn": tru')  # no trailing newline: a torn tail
    loaded, skipped = read_ledger(path)
    assert [e["id"] for e in loaded] == [entry["id"]]
    assert skipped == 2
    # A damaged ledger still accepts appends of fresh entries.
    other = manifest_entry(_manifest(stage_total=9.0))
    assert append_entries(path, [other]) == 1
    loaded, _ = read_ledger(path)
    assert {e["id"] for e in loaded} == {entry["id"], other["id"]}


def test_missing_ledger_reads_empty(tmp_path):
    loaded, skipped = read_ledger(tmp_path / "absent.jsonl")
    assert loaded == [] and skipped == 0


def test_load_entries_merges_and_time_orders(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    e1 = dict(manifest_entry(_manifest(stage_total=1.0)),
              created_at="2026-08-01T00:00:00+00:00")
    e2 = dict(manifest_entry(_manifest(stage_total=2.0)),
              created_at="2026-08-02T00:00:00+00:00")
    e1["id"], e2["id"] = entry_id(e1), entry_id(e2)
    append_entries(a, [e2])
    append_entries(b, [e1, e2])  # e2 duplicated across files
    merged = load_entries([a, b])
    assert [e["id"] for e in merged] == [e1["id"], e2["id"]]


def test_default_ledger_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
    assert default_ledger_path(tmp_path) == tmp_path / "run-ledger.jsonl"
    assert default_ledger_path().name == "run-ledger.jsonl"
    monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "env.jsonl"))
    assert default_ledger_path(tmp_path) == tmp_path / "env.jsonl"


# ------------------------------------------------- concurrent appenders

def _hammer(args):
    """One worker of the concurrency hammer: N appends, one call each."""
    path, worker, n = args
    for i in range(n):
        entry = {
            "format": LEDGER_FORMAT,
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "bench",
            "experiment": f"hammer-w{worker}-{i}",
            "scale": "bench",
            "created_at": f"2026-08-08T00:{worker:02d}:{i:02d}+00:00",
            "metrics": {"timing/mean": float(worker * 1000 + i)},
        }
        append_entries(path, [entry])
    return worker


def test_concurrent_appends_lose_nothing(tmp_path):
    """Hammer the atomic-append path from multiple processes.

    Mirrors ``run_saturation_grid --processes``: four processes append
    25 entries each, interleaved arbitrarily.  Every entry must land
    exactly once, every line must parse — no loss, no tearing, no
    duplicates.
    """
    path = tmp_path / "ledger.jsonl"
    n_workers, per_worker = 4, 25
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        done = list(
            pool.map(
                _hammer,
                [(str(path), w, per_worker) for w in range(n_workers)],
            )
        )
    assert sorted(done) == list(range(n_workers))

    # Every line parses — no torn or interleaved writes.
    lines = path.read_text().splitlines()
    assert len(lines) == n_workers * per_worker
    docs = [json.loads(line) for line in lines]

    loaded, skipped = read_ledger(path)
    assert skipped == 0
    assert len(loaded) == n_workers * per_worker
    names = {e["experiment"] for e in loaded}
    assert names == {
        f"hammer-w{w}-{i}"
        for w in range(n_workers)
        for i in range(per_worker)
    }
    assert len({e["id"] for e in docs}) == n_workers * per_worker


# ------------------------------------------------------- runner feeding

@pytest.fixture(autouse=True)
def _obs_state():
    level = log.get_level()
    yield
    log.set_level(level)
    log.close_jsonl()
    metrics.disable()


def test_runner_feeds_ledger_next_to_manifests(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
    out_dir = tmp_path / "tel"
    assert runner_main(
        ["table1", "--scale", "small", "--telemetry-dir", str(out_dir)]
    ) == 0
    ledger_path = out_dir / "run-ledger.jsonl"
    loaded, skipped = read_ledger(ledger_path)
    assert skipped == 0 and len(loaded) == 1
    entry = loaded[0]
    assert entry["kind"] == "manifest"
    assert entry["experiment"] == "table1"
    assert "timing/experiment.table1" in entry["metrics"]
    assert "# ledger:" in capsys.readouterr().out

    # A second run accumulates (different timings hash differently).
    assert runner_main(
        ["table1", "--scale", "small", "--telemetry-dir", str(out_dir)]
    ) == 0
    loaded, _ = read_ledger(ledger_path)
    assert len(loaded) == 2
    assert len({e["id"] for e in loaded}) == 2


def test_runner_ledger_flag_overrides_destination(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
    out_dir = tmp_path / "tel"
    custom = tmp_path / "elsewhere" / "fleet.jsonl"
    assert runner_main([
        "table1", "--scale", "small",
        "--telemetry-dir", str(out_dir), "--run-ledger", str(custom),
    ]) == 0
    loaded, _ = read_ledger(custom)
    assert len(loaded) == 1
    assert not (out_dir / "run-ledger.jsonl").exists()


def test_runner_ledger_flag_requires_telemetry_dir(tmp_path):
    with pytest.raises(SystemExit):
        runner_main(["table1", "--run-ledger", str(tmp_path / "l.jsonl")])
