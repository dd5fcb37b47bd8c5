"""Flow-level SLO analysis: fairness math, exact percentile digests,
victim detection and attribution, the ``flows`` CLI, and the derived
gauges' paths into compare-runs and the N-run trend gate.

The acceptance pins: histogram percentiles equal ``np.percentile``, the
HTML report is byte-deterministic, and ``runs gate`` exits non-zero on
an injected >= 30% p99 regression.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import fairness, flowstats
from repro.obs.compare import compare_manifests
from repro.obs.fairness import (
    flow_docs,
    flowstats_report,
    jain_index,
    match_run,
    pair_stats,
    percentiles_from_hist,
    run_summary,
    snapshot_gauges,
    victim_link_attribution,
    victim_pairs,
)
from repro.obs.flowstats import (
    FlowstatsRecorder,
    pair_endpoints,
    save_flowstats,
)
from repro.obs.ledger import (
    LEDGER_FORMAT,
    LEDGER_SCHEMA_VERSION,
    append_entries,
    entry_id,
)
from repro.obs.linkstate import LinkstateRecorder
from repro.obs.trend import main as runs_main
from repro.report import flowstats_html

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _flowstats_disabled():
    flowstats.disable()
    yield
    flowstats.disable()


SHAPE = dict(n_hosts=3, n_pairs=9, n_bins=64)


def _snap(per_run_events, metas=None):
    """A synthetic snapshot: one (pairs, latencies) stream per run."""
    rec = FlowstatsRecorder()
    ep = pair_endpoints(3)
    for i, events in enumerate(per_run_events):
        meta = dict(SHAPE, **(metas[i] if metas else {}))
        run = rec.begin_run(**meta)
        rec.set_pair_endpoints(ep["pair_src"], ep["pair_dst"])
        if events:
            rec.record_run(run, [p for p, _ in events], [l for _, l in events])
    return rec.snapshot()


# ----------------------------------------------------------- pure math

def test_percentiles_from_hist_matches_np_percentile():
    rng = np.random.default_rng(7)
    qs = (0, 25, 50, 90, 99, 100)
    for _ in range(50):
        sample = rng.integers(0, 40, size=rng.integers(1, 200))
        bins, counts = np.unique(sample, return_counts=True)
        got = percentiles_from_hist(bins, counts, qs)
        want = np.percentile(sample, qs)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_percentiles_from_hist_empty_is_nan():
    assert all(np.isnan(v) for v in percentiles_from_hist([], [], (50, 99)))


def test_jain_index():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    # Textbook: one active flow out of n scores 1/n over raw values —
    # but zero-delivery pairs are excluded here, so starvation does not
    # masquerade as unfairness.
    assert jain_index([9, 0, 0]) == pytest.approx(1.0)
    assert jain_index([1, 3]) == pytest.approx(16 / (2 * 10))
    assert np.isnan(jain_index([]))
    assert np.isnan(jain_index([0, 0]))


# ----------------------------------------------------- per-run analysis

def test_pair_stats_digests_and_range_check():
    snap = _snap([[(1, 4), (1, 8), (5, 2)]])
    stats = pair_stats(snap, 0)
    assert [s["pair"] for s in stats] == [1, 5]
    s1 = stats[0]
    assert (s1["src"], s1["dst"], s1["label"]) == (0, 1, "h0->h1")
    assert s1["delivered"] == 2 and s1["mean"] == 6.0 and s1["max"] == 8
    assert s1["p50"] == pytest.approx(6.0)  # midpoint of {4, 8}
    with pytest.raises(ConfigurationError, match="out of range"):
        pair_stats(snap, 1)
    with pytest.raises(ConfigurationError, match="format"):
        pair_stats({"format": "junk"}, 0)


def test_victim_pairs_semantics():
    # Seven quiet pairs at p99 10 and one at 30: median 10, ratio 3.
    events = [(p, 10) for p in range(7)] + [(7, 30)]
    stats = pair_stats(_snap([events]), 0)
    victims = victim_pairs(stats, k=2.0)
    assert [v["pair"] for v in victims] == [7]
    assert victims[0]["ratio"] == pytest.approx(3.0)
    assert victim_pairs(stats, k=3.5) == []
    with pytest.raises(ConfigurationError, match="k must be > 0"):
        victim_pairs(stats, k=0)
    # All-zero latencies: no meaningful spread, no victims.
    assert victim_pairs(pair_stats(_snap([[(0, 0), (1, 0)]]), 0)) == []
    assert victim_pairs([]) == []


def test_run_summary_and_gauges_pick_the_worst_run():
    metas = [{"scheme": "ksp", "mechanism": "m", "rate": 0.2}] * 2
    snap = _snap(
        [
            [(p, 10) for p in range(4)],            # fair, p99 10
            [(0, 10), (1, 10), (2, 10), (2, 50)],   # skewed, p99 up
        ],
        metas,
    )
    s0, s1 = run_summary(snap, 0), run_summary(snap, 1)
    assert s0["jain"] == pytest.approx(1.0)
    assert s0["worst"]["p99"] == pytest.approx(10.0)
    assert s1["jain"] < 1.0
    assert s1["worst"]["pair"] == 2
    gauges = snapshot_gauges(snap)
    assert gauges["netsim.fairness_jain"] == pytest.approx(s1["jain"])
    assert gauges["netsim.worst_pair_p99"] == pytest.approx(s1["worst"]["p99"])
    # A snapshot with no deliveries contributes no gauges at all.
    assert snapshot_gauges(_snap([[]])) == {}


def test_match_run_positional_then_unique_meta():
    meta = [
        {"scheme": "ksp", "mechanism": "a", "rate": 0.2},
        {"scheme": "rksp", "mechanism": "a", "rate": 0.2},
    ]
    snap = _snap([[(0, 1)], [(0, 1)]], meta)
    same = {"runs": [dict(m) for m in meta]}
    assert match_run(snap, 1, same) == 1
    # Reordered sibling: fall back to the unique metadata match.
    flipped = {"runs": [dict(meta[1]), dict(meta[0])]}
    assert match_run(snap, 1, flipped) == 0
    # Ambiguous (duplicate meta) or missing: no match.
    dupes = {"runs": [dict(meta[0]), dict(meta[0])]}
    assert match_run(snap, 1, dupes) is None
    assert match_run(snap, 0, {"runs": []}) is None


def test_victim_link_attribution_joins_the_stall_record():
    meta = {"scheme": "ksp", "mechanism": "a", "rate": 0.2}
    ls = LinkstateRecorder(window=10)
    run = ls.begin_run(n_links=3, **meta)
    # link 0: switch core s0->s1 (dominant staller); link 1: host 0's
    # injection link; link 2: host 1's injection link (never stalls).
    ls.set_link_endpoints([0, -1, -2], [1, 0, 0])
    ls.record_window(
        run, start=0, cycles=10,
        forwarded=[5, 5, 5], credit_stalls=[30, 10, 0],
        peak_occupancy=[2, 0, 0],
    )
    victims = [
        {"pair": 1, "src": 0, "dst": 1, "label": "h0->h1"},
        {"pair": 5, "src": 1, "dst": 2, "label": "h1->h2"},
    ]
    out = victim_link_attribution(victims, ls.snapshot(), 0)
    assert [a["injection_stalls"] for a in out] == [10, 0]
    for a in out:
        assert a["suspect"]["label"] == "s0->s1"
        assert a["suspect"]["credit_stalls"] == 30
        assert a["suspect"]["share"] == pytest.approx(0.75)


# ------------------------------------------------------ report + CLI

def _victim_snap():
    metas = [{"scheme": "ksp", "mechanism": "ksp_adaptive", "rate": 0.4}]
    events = [(p, 10) for p in range(7)] + [(7, 30), (8, 12)]
    return _snap([events], metas)


def test_flowstats_report_is_deterministic_and_complete():
    snap = _victim_snap()
    text = flowstats_report(snap, k=2.0)
    assert text == flowstats_report(snap, k=2.0)
    assert "ksp/ksp_adaptive @ 0.4" in text
    assert "victim pairs (p99 > 2x median): 1" in text
    assert "*h2->h1" in text          # victim pair 7 flagged in the table
    assert "dst host 0.." in text     # heatmap axis label
    with pytest.raises(ConfigurationError, match="out of range"):
        flowstats_report(snap, run=3)


def test_flowstats_html_is_byte_deterministic():
    docs = [flow_docs(_victim_snap(), name="t")]
    html = flowstats_html(docs)
    assert html == flowstats_html(docs)
    assert html.startswith("<!DOCTYPE html>")
    assert "Jain index" in html
    assert "Victim pairs" in html


class TestFlowsCLI:
    def test_reports_directory_and_writes_html(self, tmp_path, capsys):
        save_flowstats(tmp_path / "demo.flowstats.npz", _victim_snap())
        out = tmp_path / "flow.html"
        assert fairness.main([str(tmp_path), "--html", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "flow-level SLOs [demo]" in printed
        assert "victim pairs" in printed
        assert out.exists() and out.read_text().startswith("<!DOCTYPE html>")
        # Byte-determinism of the written artifact across invocations.
        first = out.read_bytes()
        assert fairness.main([str(tmp_path), "--html", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_single_file_and_run_selection(self, tmp_path, capsys):
        path = tmp_path / "demo.flowstats.npz"
        save_flowstats(path, _victim_snap())
        assert fairness.main([str(path), "--run", "0", "--top", "3"]) == 0
        assert "== run 0:" in capsys.readouterr().out

    def test_exit_two_without_artifacts(self, tmp_path, capsys):
        assert fairness.main([str(tmp_path)]) == 2
        assert "no *.flowstats.npz" in capsys.readouterr().out
        assert fairness.main([str(tmp_path / "absent")]) == 2

    def test_exit_two_on_unreadable_artifact(self, tmp_path, capsys):
        path = save_flowstats(tmp_path / "demo.flowstats.npz", _victim_snap())
        path.write_bytes(path.read_bytes()[:100])
        assert fairness.main([str(tmp_path)]) == 2
        assert str(path) in capsys.readouterr().out

    def test_joins_sibling_linkstate(self, tmp_path, capsys):
        _save_victim_artifacts(tmp_path)
        assert fairness.main([str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "injection stalls 10" in printed
        assert "top stalled link s0->s1" in printed

    def test_output_is_pinned(self, tmp_path, capsys):
        """stdout and the --html page of a fixed artifact pair, byte for
        byte."""
        _save_victim_artifacts(tmp_path)
        out = tmp_path / "flow.html"
        assert fairness.main([str(tmp_path), "--html", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        assert _sha(printed) == (
            "d7704687cbc72fdb936e76c37e6a258f35d750172f331da56f4d476c5c75497a"
        )
        assert _sha(out.read_bytes()) == (
            "3f0971a46ec14f9c119136d9916899eea5e846317f5a91b8b51bb4b2372f3cd7"
        )

    def test_run_out_of_range_exits_two(self, tmp_path, capsys):
        save_flowstats(tmp_path / "demo.flowstats.npz", _victim_snap())
        assert fairness.main([str(tmp_path), "--run", "99"]) == 2
        assert "out of range" in capsys.readouterr().out

    def test_analyses_each_run_once(self, tmp_path, capsys, monkeypatch):
        """One document per artifact: text and HTML share one analysis."""
        calls = []
        pair_stats = fairness.pair_stats

        def counted(snap, run):
            calls.append(run)
            return pair_stats(snap, run)

        monkeypatch.setattr(fairness, "pair_stats", counted)
        events = [(p, 10) for p in range(7)] + [(7, 30), (8, 12)]
        metas = [
            {"scheme": "ksp", "mechanism": "ksp_adaptive", "rate": r}
            for r in (0.2, 0.4, 0.6)
        ]
        save_flowstats(tmp_path / "demo.flowstats.npz", _snap([events] * 3, metas))
        out = tmp_path / "flow.html"
        assert fairness.main([str(tmp_path), "--html", str(out)]) == 0
        capsys.readouterr()
        assert calls == [0, 1, 2]


def _sha(data) -> str:
    return hashlib.sha256(
        data.encode() if isinstance(data, str) else data
    ).hexdigest()


def _save_victim_artifacts(tmp_path):
    """``_victim_snap`` plus a link-state sibling whose run matches it."""
    from repro.obs.linkstate import save_linkstate

    save_flowstats(tmp_path / "demo.flowstats.npz", _victim_snap())
    ls = LinkstateRecorder(window=10)
    run = ls.begin_run(
        n_links=3, scheme="ksp", mechanism="ksp_adaptive", rate=0.4,
    )
    ls.set_link_endpoints([0, -3, -2], [1, 0, 0])
    ls.record_window(
        run, start=0, cycles=10,
        forwarded=[5, 5, 5], credit_stalls=[30, 10, 0],
        peak_occupancy=[2, 0, 0],
    )
    save_linkstate(tmp_path / "demo.linkstate.npz", ls.snapshot())


# ------------------------------------- derived gauges downstream paths

def _manifest(gauges):
    return {
        "format": "repro-manifest-v1",
        "schema_version": 1,
        "metrics": {"gauges": gauges},
    }


def test_compare_runs_surfaces_slo_gauges_report_only():
    base = _manifest(
        {"netsim.latency_p99": 100.0, "netsim.fairness_jain": 0.9,
         "netsim.worst_pair_p99": 150.0, "netsim.mean_latency": 40.0,
         "netsim.other_gauge": 1.0}
    )
    new = _manifest(
        {"netsim.latency_p99": 160.0, "netsim.fairness_jain": 0.5,
         "netsim.worst_pair_p99": 300.0, "netsim.mean_latency": 80.0,
         "netsim.other_gauge": 2.0}
    )
    diff = compare_manifests(base, new)
    names = {d.name for d in diff.deltas if d.kind == "gauge"}
    assert names == {
        "netsim.latency_p99", "netsim.fairness_jain",
        "netsim.worst_pair_p99", "netsim.mean_latency",
    }
    # Report-only: the single-pair diff never gates SLO gauges — the
    # N-run trend analysis owns their regression thresholds.
    assert not diff.regressions


def _entry(i, metrics):
    entry = {
        "format": LEDGER_FORMAT,
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "manifest",
        "experiment": "fig11",
        "scale": "small",
        "host": "ci",
        "engines": ["fast"],
        "created_at": f"2026-08-01T00:00:{i:02d}+00:00",
        "metrics": {k: float(v) for k, v in metrics.items()},
    }
    entry["id"] = entry_id(entry)
    return entry


def _p99_series(values):
    return [
        _entry(i, {"gauge/netsim.latency_p99": v})
        for i, v in enumerate(values)
    ]


def test_runs_gate_fails_injected_p99_regression(tmp_path, capsys):
    """Acceptance pin: injected >= 30% p99 bump -> non-zero exit."""
    bad = tmp_path / "bad.jsonl"
    append_entries(bad, _p99_series([100.0, 100.0, 100.0, 130.0]))
    assert runs_main(["gate", "--ledger", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "latency_p99" in out

    flat = tmp_path / "flat.jsonl"
    append_entries(flat, _p99_series([100.0, 101.0, 100.0, 100.0]))
    assert runs_main(["gate", "--ledger", str(flat)]) == 0


def test_runs_gate_fails_fairness_collapse(tmp_path, capsys):
    bad = tmp_path / "jain.jsonl"
    append_entries(
        bad,
        [
            _entry(i, {"gauge/netsim.fairness_jain": v})
            for i, v in enumerate([0.9, 0.9, 0.9, 0.6])
        ],
    )
    assert runs_main(["gate", "--ledger", str(bad)]) == 1
    assert "fairness_jain" in capsys.readouterr().out
