"""Congestion forensics: causal stall attribution over link state.

The anchor test validates the backpressure tree on a synthetic
single-bottleneck topology whose congestion wave is known a priori —
the walk must recover exactly that root, that child chain, and stop at
the injection edge.  The rest pins ranking determinism, onset
detection, the trace/path-cache joins, and byte-deterministic
ASCII/HTML renders from one live telemetry run.
"""

import hashlib

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import SimConfig, Simulator, UniformTraffic
from repro.obs import forensics, linkstate, trace
from repro.obs.forensics import (
    congestion_onset,
    congestion_tree,
    deep_dive_docs,
    forensics_report,
    link_label,
    link_path_attribution,
    main as inspect_main,
    rank_stalled_links,
    run_label,
    run_windows,
    static_link_paths,
)
from repro.obs.linkstate import LinkstateRecorder, save_linkstate
from repro.report import forensics_html

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _telemetry_disabled():
    linkstate.disable()
    trace.disable()
    yield
    linkstate.disable()
    trace.disable()


# ------------------------------------------- synthetic single bottleneck
#
# A three-switch chain with one congested core link, known a priori:
#
#   h0 -> s0 -> s1 -> s2 -> h1          (forward direction, loaded)
#         s0 <- s1 <- s2                (reverse direction, idle)
#
# The bottleneck is s1->s2.  Its backpressure fills s1, stalling the
# link feeding s1 (s0->s1), which fills s0 and stalls the injection
# link h0->s0.  The recovered tree must be exactly that chain.

LINKS = [
    (0, 1),    # 0: s0->s1    (stalled: one hop upstream of the root)
    (1, 2),    # 1: s1->s2    (the bottleneck root)
    (2, 1),    # 2: s2->s1    (reverse, idle)
    (1, 0),    # 3: s1->s0    (reverse, idle)
    (-1, 0),   # 4: h0->s0    (injection, stalled: the edge symptom)
    (-2, 2),   # 5: h1->s2    (injection, idle)
    (2, -2),   # 6: s2->h1    (ejection)
    (0, -1),   # 7: s0->h0    (ejection)
]


def _bottleneck_snap(stall_rows, *, window=100, forwarded=None, rates=(0.5,)):
    """A snapshot over LINKS with the given per-window stall vectors,
    one run per rate."""
    rec = LinkstateRecorder(window=window)
    n = len(LINKS)
    for rate in rates:
        run = rec.begin_run(
            scheme="redksp", mechanism="ksp_adaptive", rate=rate,
            n_hosts=2, n_links=n, warmup_cycles=0, channel_latency=1,
        )
        rec.set_link_endpoints([u for u, _ in LINKS], [v for _, v in LINKS])
        for i, stalls in enumerate(stall_rows):
            rec.record_window(
                run, start=i * window, cycles=window,
                forwarded=forwarded if forwarded is not None else [10] * n,
                credit_stalls=stalls,
                peak_occupancy=[3] * n,
            )
    return rec.snapshot()


def test_congestion_tree_recovers_known_bottleneck():
    """The acceptance pin: a priori bottleneck, exact recovered tree."""
    #                    s0->s1  s1->s2  s2->s1 s1->s0  h0->s0  rest...
    snap = _bottleneck_snap([[40,  100,    0,     0,     200,   0, 0, 0]])
    tree = congestion_tree(snap)
    assert tree is not None
    # Root: the most-stalled *switch-sourced* link — the bottleneck
    # s1->s2, even though the raw maximum (200) sits on the injection
    # edge, which is the symptom, not the cause.
    assert tree["link"] == 1 and tree["label"] == "s1->s2"
    assert tree["credit_stalls"] == 100
    # One child: the only stalled link feeding s1.
    assert [c["label"] for c in tree["children"]] == ["s0->s1"]
    child = tree["children"][0]
    assert child["credit_stalls"] == 40
    # Its child: the stalled injection link feeding s0 ...
    assert [g["label"] for g in child["children"]] == ["h0->s0"]
    leaf = child["children"][0]
    assert leaf["credit_stalls"] == 200
    # ... which bottoms out the walk: nothing is upstream of a source.
    assert leaf["children"] == []
    # Shares are fractions of all stalls (340).
    assert tree["share"] == pytest.approx(100 / 340)


def test_congestion_tree_depth_and_children_caps():
    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    shallow = congestion_tree(snap, max_depth=1)
    assert [c["label"] for c in shallow["children"]] == ["s0->s1"]
    assert shallow["children"][0]["children"] == []
    assert congestion_tree(snap, max_depth=0)["children"] == []


def test_congestion_tree_explicit_root_and_injection_fallback():
    # Explicit root overrides the default choice.
    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    tree = congestion_tree(snap, root=0)
    assert tree["label"] == "s0->s1"
    # With only injection links stalled, the edge maximum is the whole
    # story: the fallback roots there and the tree is a single node.
    edge_only = _bottleneck_snap([[0, 0, 0, 0, 200, 0, 0, 0]])
    tree = congestion_tree(edge_only)
    assert tree["label"] == "h0->s0" and tree["children"] == []


def test_congestion_tree_terminates_on_cycles():
    # Both directions of the s0<->s1 pair stalled: the walk must visit
    # each link at most once instead of ping-ponging forever.
    snap = _bottleneck_snap([[50, 0, 0, 30, 0, 0, 0, 0]])
    tree = congestion_tree(snap)
    assert tree["label"] == "s0->s1"
    assert [c["label"] for c in tree["children"]] == ["s1->s0"]
    assert tree["children"][0]["children"] == []  # s0->s1 already visited


def test_congestion_tree_none_without_stalls():
    snap = _bottleneck_snap([[0] * len(LINKS)])
    assert congestion_tree(snap) is None


def test_rank_stalled_links_deterministic_with_ties():
    # Links 0 and 1 tie at 50: ascending link id breaks the tie.
    snap = _bottleneck_snap([[50, 50, 0, 0, 20, 0, 0, 0]])
    ranked = rank_stalled_links(snap, top=10)
    assert [e["link"] for e in ranked] == [0, 1, 4]  # zero-stall links cut
    assert ranked[0]["label"] == "s0->s1"
    assert ranked[0]["share"] == pytest.approx(50 / 120)
    assert ranked[0]["forwarded"] == 10 and ranked[0]["peak_occupancy"] == 3
    assert len(rank_stalled_links(snap, top=2)) == 2


def test_congestion_onset_finds_the_knee():
    idle = [0] * len(LINKS)
    rows = [idle, idle]
    rows.append([0, 10, 0, 0, 0, 0, 0, 0])     # window 2: first stalls
    for _ in range(8):
        rows.append([0, 100, 0, 0, 0, 0, 0, 0])  # plateau at 100/window
    snap = _bottleneck_snap(rows)
    onset = congestion_onset(snap, 0)
    assert onset is not None
    assert onset["plateau"] == pytest.approx(100.0)
    assert onset["threshold"] == pytest.approx(50.0)
    # First window at >= half the plateau is the first full-stall window.
    assert onset["onset_window"] == 3
    assert onset["onset_cycle"] == 300
    assert onset["converged_at"] is not None


def test_congestion_onset_none_cases():
    quiet = _bottleneck_snap([[0] * len(LINKS)] * 4)
    assert congestion_onset(quiet, 0) is None
    # A transient that dies back to zero is not congestion.
    rows = [[0, 50, 0, 0, 0, 0, 0, 0]] + [[0] * len(LINKS)] * 9
    assert congestion_onset(_bottleneck_snap(rows), 0) is None


def test_run_windows_masks_and_orders():
    rec = LinkstateRecorder(window=10)
    for tag in ("a", "b"):
        run = rec.begin_run(tag=tag, n_links=2)
        for i in range(2):
            rec.record_window(
                run, start=10 * i, cycles=10,
                forwarded=[run + 1, i], credit_stalls=[0, 0],
                peak_occupancy=[0, 0],
            )
    snap = rec.snapshot()
    w = run_windows(snap, 1)
    assert w["start"].tolist() == [0, 10]
    assert w["forwarded"][:, 0].tolist() == [2, 2]


def test_labels():
    assert link_label(3, -1) == "s3->h0"
    assert link_label(-5, 2) == "h4->s2"
    snap = _bottleneck_snap([[0] * len(LINKS)])
    assert run_label(snap, 0) == "redksp/ksp_adaptive @ 0.5"
    assert run_label(snap, 9) == "run9"


def test_format_guard():
    with pytest.raises(ConfigurationError, match="repro-linkstate-v1"):
        rank_stalled_links({"format": "nope"})


# --------------------------------------------------- live telemetry joins

@pytest.fixture(scope="module")
def live():
    """One traced + link-state run on a real topology, shared read-only."""
    topo = Jellyfish(8, 8, 5, seed=3)
    cache = PathCache(topo, "redksp", k=4, seed=1)
    cfg = SimConfig(warmup_cycles=100, sample_cycles=100, n_samples=2)
    with trace.capture(sample=1) as tr, linkstate.capture(window=100) as ls:
        sim = Simulator(
            topo, cache, "ksp_adaptive", UniformTraffic(topo.n_hosts), 0.9,
            config=cfg, seed=np.random.SeedSequence(5),
        )
        sim.run()
        tr_snap, ls_snap = tr.snapshot(), ls.snapshot()
    return topo, cache, ls_snap, tr_snap


def test_link_path_attribution_joins_trace(live):
    topo, cache, ls_snap, tr_snap = live
    attribution = link_path_attribution(ls_snap, tr_snap)
    launched = int((np.asarray(tr_snap["pk_t_launch"]) >= 0).sum())
    assert launched > 0
    # Every launched traced packet crosses exactly one injection link.
    inj_total = sum(
        attribution[topo.injection_link_base + h]["packets"]
        for h in range(topo.n_hosts)
        if topo.injection_link_base + h in attribution
    )
    assert inj_total == launched
    # All attribution rides under this run's scheme/mechanism label.
    some = attribution[next(iter(sorted(attribution)))]
    assert all(lab == "redksp/ksp_adaptive" for lab, _ in some["paths"])
    assert some["packets"] == sum(some["paths"].values())
    assert some["packets"] == sum(some["pairs"].values())

    with pytest.raises(ConfigurationError, match="repro-trace-v1"):
        link_path_attribution(ls_snap, {"format": "nope"})


def test_static_link_paths_covers_cached_routes(live):
    topo, cache, ls_snap, _ = live
    table = static_link_paths(ls_snap, cache)
    assert table  # the run warmed pairs into the cache
    state = cache.export_state()
    (s, d), ps = sorted(state.items())[0]
    # Every path index of the first cached pair appears on the links of
    # its own route.
    pair_links = {
        lid for lid, triples in table.items()
        if any(t[0] == s and t[1] == d for t in triples)
    }
    for idx in range(ps.k):
        nodes = ps[idx].nodes
        assert len(nodes) == 1 or pair_links  # single-switch pairs add none
    for lid, triples in table.items():
        assert triples == sorted(triples) or len(set(triples)) == len(triples)


# ----------------------------------------------- reports (deterministic)

def test_forensics_report_ascii_deterministic(live):
    _, _, ls_snap, tr_snap = live
    a = forensics_report(ls_snap, trace=tr_snap)
    b = forensics_report(ls_snap, trace=tr_snap)
    assert a == b
    assert "congestion forensics" in a
    assert "credit-stall attribution" in a
    assert "flits forwarded per 100-cycle window" in a
    assert "hot-link path attribution" in a


def test_forensics_report_handles_quiet_snapshot():
    snap = _bottleneck_snap([[0] * len(LINKS)], forwarded=[0] * len(LINKS))
    text = forensics_report(snap)
    assert "no credit stalls recorded" in text
    assert "congestion onset: none" in text


def test_forensics_report_rejects_bad_run():
    snap = _bottleneck_snap([[0] * len(LINKS)])
    with pytest.raises(ConfigurationError, match="out of range"):
        forensics_report(snap, run=5)


def test_forensics_html_deterministic(live):
    _, _, ls_snap, tr_snap = live
    docs = [deep_dive_docs(ls_snap, name="t", trace=tr_snap)]
    a = forensics_html(docs)
    b = forensics_html([deep_dive_docs(ls_snap, name="t", trace=tr_snap)])
    assert a == b
    assert a.startswith("<!DOCTYPE html>")
    assert "http://" not in a and "https://" not in a  # self-contained
    assert "Flits forwarded" in a and "Credit stalls" in a


def test_latency_strip_joins_the_matching_timeseries_run():
    """The strip comes from the time-series run with the same meta, even
    when the two artifacts recorded different run sequences."""
    from repro.obs.timeseries import TimeseriesRecorder

    ts = TimeseriesRecorder(window=100)
    for scheme in ("ksp", "redksp"):  # the decoy run first
        run = ts.begin_run(scheme=scheme, mechanism="ksp_adaptive", rate=0.5)
        ts.record_window(
            run, start=0, cycles=100, injected=2, ejected=2,
            lat_sum=90 if scheme == "redksp" else 10,
            credit_stalls=0, forwarded=4, occupancy=0,
        )
    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    doc = deep_dive_docs(snap, timeseries=ts.snapshot())
    assert doc["runs"][0]["latency"] == [45.0]
    assert "mean packet latency per window" in forensics_html([doc])


def test_hot_paths_keep_uncrossed_links_for_the_text_only():
    """A ranked link no traced packet crossed stays in the document (so
    the text can say so) and out of the HTML page."""
    from repro.obs.trace import TraceRecorder

    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    doc = deep_dive_docs(snap, trace=TraceRecorder().snapshot())
    hot = doc["runs"][0]["hot_paths"]
    assert [hp["label"] for hp in hot] == ["h0->s0", "s1->s2", "s0->s1"]
    assert all(hp["packets"] == 0 and hp["paths"] == [] for hp in hot)
    assert "h0-&gt;s0: 0 traced" not in forensics_html([doc])
    text = forensics_report(snap, trace=TraceRecorder().snapshot())
    assert "     h0->s0: no traced packets crossed it" in text


def test_tree_renders_in_html():
    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    page = forensics_html([deep_dive_docs(snap, name="bottleneck")])
    assert "s1-&gt;s2" in page  # the recovered root, escaped
    assert "backpressure tree" in page


# --------------------------------------------------------------- the CLI

def test_inspect_cli_end_to_end(tmp_path, capsys):
    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    save_linkstate(tmp_path / "bottleneck-small.linkstate.npz", snap)
    out = tmp_path / "dive" / "deep.html"
    assert inspect_main([str(tmp_path), "--html", str(out)]) == 0
    text = capsys.readouterr().out
    assert "congestion forensics [bottleneck-small]" in text
    assert "s1->s2" in text
    assert out.exists() and out.read_text().startswith("<!DOCTYPE html>")

    # Single-file form works too, and renders are byte-identical.
    assert inspect_main(
        [str(tmp_path / "bottleneck-small.linkstate.npz")]
    ) == 0
    again = capsys.readouterr().out
    assert again.splitlines()[0] == text.splitlines()[0]


def test_inspect_cli_exit_codes(tmp_path, capsys):
    assert inspect_main([str(tmp_path / "missing")]) == 2
    assert "does not exist" in capsys.readouterr().out
    assert inspect_main([str(tmp_path)]) == 2
    assert "no *.linkstate.npz" in capsys.readouterr().out


def _sha(data) -> str:
    return hashlib.sha256(
        data.encode() if isinstance(data, str) else data
    ).hexdigest()


def test_inspect_cli_output_is_pinned(tmp_path, capsys):
    """stdout and the --html page of a fixed artifact, byte for byte:
    two runs with an onset and a tree, plus an (empty) trace sibling."""
    rows = [[0] * len(LINKS)] + [[40, 100, 0, 0, 200, 0, 0, 0]] * 5
    save_linkstate(
        tmp_path / "bottleneck-small.linkstate.npz",
        _bottleneck_snap(rows, rates=(0.3, 0.5)),
    )
    trace.save_trace(
        tmp_path / "bottleneck-small.trace.npz", trace.TraceRecorder().snapshot()
    )
    out = tmp_path / "deep.html"
    assert inspect_main([str(tmp_path), "--html", str(out)]) == 0
    printed = capsys.readouterr().out.replace(str(out), "OUT")
    assert "no traced packets crossed it" in printed
    assert _sha(printed) == (
        "1006eed07960aff1b442a96a49f76722e48600aa2005ded4135d58267db851f6"
    )
    assert _sha(out.read_bytes()) == (
        "af9c38bbff9b1342d417e969cf789d795294e265761f5ef9dd356c7aecd7b2df"
    )
    assert inspect_main([str(tmp_path), "--run", "1"]) == 0
    assert _sha(capsys.readouterr().out) == (
        "6a2c537c8e52e4607cbf6c30a086ce0a69899a75d61d7d28ae19bf968beae3ae"
    )


def test_inspect_cli_run_out_of_range_exits_two(tmp_path, capsys):
    save_linkstate(
        tmp_path / "x-small.linkstate.npz", _bottleneck_snap([[0] * len(LINKS)])
    )
    assert inspect_main([str(tmp_path), "--run", "99"]) == 2
    assert "out of range" in capsys.readouterr().out


def test_inspect_cli_analyses_each_run_once(tmp_path, capsys, monkeypatch):
    """One document per artifact: text and HTML share one analysis."""
    calls = {}

    def counted(name):
        fn = getattr(forensics, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(forensics, name, wrapper)

    for name in ("congestion_onset", "congestion_tree", "rank_stalled_links"):
        counted(name)
    rows = [[40, 100, 0, 0, 200, 0, 0, 0]] * 4
    save_linkstate(
        tmp_path / "x-small.linkstate.npz",
        _bottleneck_snap(rows, rates=(0.1, 0.2, 0.3)),
    )
    out = tmp_path / "deep.html"
    assert inspect_main([str(tmp_path), "--html", str(out)]) == 0
    capsys.readouterr()
    assert calls == {
        "congestion_onset": 3, "congestion_tree": 3, "rank_stalled_links": 3,
    }


def test_inspect_cli_skips_unreadable_sibling(tmp_path, capsys):
    from repro.obs.timeseries import TimeseriesRecorder, save_timeseries

    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    primary = save_linkstate(tmp_path / "x-small.linkstate.npz", snap)
    sibling = save_timeseries(
        tmp_path / "x-small.timeseries.npz",
        TimeseriesRecorder(window=100).snapshot(),
    )
    sibling.write_bytes(sibling.read_bytes()[:100])  # truncated: optional
    assert inspect_main([str(tmp_path)]) == 0
    assert "congestion forensics [x-small]" in capsys.readouterr().out

    primary.write_bytes(primary.read_bytes()[:100])  # truncated: required
    assert inspect_main([str(tmp_path)]) == 2
    assert str(primary) in capsys.readouterr().out


def test_inspect_cli_reachable_through_runner(tmp_path, capsys):
    from repro.experiments.runner import main as runner_main

    snap = _bottleneck_snap([[40, 100, 0, 0, 200, 0, 0, 0]])
    save_linkstate(tmp_path / "x-small.linkstate.npz", snap)
    assert runner_main(["inspect", str(tmp_path)]) == 0
    assert "congestion forensics [x-small]" in capsys.readouterr().out
