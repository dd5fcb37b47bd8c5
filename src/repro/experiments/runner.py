"""Experiment registry and command-line entry point.

With ``--telemetry-dir DIR`` every experiment run additionally produces:

- ``<experiment>-<scale>.manifest.json`` — the run manifest (config,
  package version, topology hash, stage timings, metric snapshot);
- ``<experiment>-<scale>.events.jsonl`` — the structured event log
  (records at or above ``--log-level``);
- a ledger entry appended to the persistent run index (``--run-ledger``
  or ``$REPRO_RUN_LEDGER``, else ``run-ledger.jsonl`` next to the
  manifests) — the input of ``python -m repro.experiments runs``;
- an ASCII summary on stdout: the stage-timing table and, for simulator
  experiments, the per-scheme link-load-imbalance report.
"""

from __future__ import annotations

import argparse
import inspect
import time
from pathlib import Path
from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.obs import flowstats as obs_flowstats
from repro.obs import layers
from repro.obs import linkstate as obs_linkstate
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs import monitor as obs_monitor
from repro.obs import timeseries as obs_timeseries
from repro.obs import trace as obs_trace
from repro.obs.manifest import build_manifest, write_manifest
from repro.experiments.base import ExperimentResult
from repro.experiments.ext_failures import run as run_ext_failures
from repro.experiments.figs_latency import run_fig11, run_fig12, run_fig13
from repro.experiments.figs_model import run_fig4, run_fig5, run_fig6
from repro.experiments.figs_netsim import run_fig7, run_fig8, run_fig9, run_fig10
from repro.experiments.presets import SCALES
from repro.experiments.table1 import run as run_table1
from repro.experiments.tables234 import run_table2, run_table3, run_table4
from repro.experiments.tables_stencil import run_table5, run_table6

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    # Extension studies beyond the paper's tables/figures.
    "ext_failures": run_ext_failures,
}

#: The experiments that correspond to the paper's own tables and figures
#: (the registry may also hold ``ext_*`` extension studies).
PAPER_EXPERIMENTS = tuple(
    name for name in EXPERIMENTS if not name.startswith("ext_")
)


def run_experiment(
    name: str,
    scale: str = "small",
    seed: int = 0,
    processes: int = 1,
    path_store=None,
    pairs_on_demand=None,
) -> ExperimentResult:
    """Run one experiment by id (``"table1"`` ... ``"fig13"``).

    ``processes`` and ``path_store`` feed the fast path-table pipeline
    (parallel precompute + persistent tables); ``pairs_on_demand`` caps
    per-topology path precompute at a fixed pair budget for the drivers
    that sample pairs.  Each keyword is forwarded only to drivers that
    accept it; for all but ``pairs_on_demand``, results are identical
    either way.
    """
    try:
        driver = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    kwargs = {"scale": scale, "seed": seed}
    accepted = inspect.signature(driver).parameters
    if "processes" in accepted:
        kwargs["processes"] = processes
    if "path_store" in accepted:
        kwargs["path_store"] = path_store
    if "pairs_on_demand" in accepted and pairs_on_demand is not None:
        kwargs["pairs_on_demand"] = pairs_on_demand
    return driver(**kwargs)


def main(argv=None) -> int:
    import sys as _sys

    argv = _sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "compare-runs":
        # Sub-command: diff two run manifests and gate on regression.
        from repro.obs.compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "runs":
        # Sub-command family: inspect / trend-gate the run ledger.
        from repro.obs.trend import main as runs_main

        return runs_main(argv[1:])
    if argv and argv[0] == "inspect":
        # Sub-command: congestion forensics over a telemetry directory.
        from repro.obs.forensics import main as inspect_main

        return inspect_main(argv[1:])
    if argv and argv[0] == "flows":
        # Sub-command: flow-level SLO observatory over per-pair telemetry.
        from repro.obs.fairness import main as flows_main

        return flows_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure of the paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help=f"experiment id(s): {', '.join(sorted(EXPERIMENTS))}, or 'all'",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes for path-table precompute (default: 1)",
    )
    parser.add_argument(
        "--path-store",
        nargs="?",
        const="default",
        default=None,
        metavar="DIR",
        help="persist path tables; with no DIR, uses the default store "
        "(REPRO_PATH_STORE or ~/.cache/repro/path-tables)",
    )
    parser.add_argument(
        "--pairs-on-demand",
        type=int,
        default=None,
        metavar="N",
        help="cap path precompute at N (seeded-random) switch pairs per "
        "topology instead of the preset sample — makes multi-thousand-"
        "switch topologies feasible; only table2/3/4 consume it",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="also write <experiment>.json and <experiment>.csv here",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="enable the metrics registry and write a run manifest (JSON) "
        "plus a structured event log (JSONL) per experiment here",
    )
    parser.add_argument(
        "--run-ledger",
        default=None,
        metavar="PATH",
        help="append a ledger entry per manifest to PATH (default: "
        "$REPRO_RUN_LEDGER, else <telemetry-dir>/run-ledger.jsonl; "
        "requires --telemetry-dir)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="enable the packet flight recorder, tracing every Nth packet "
        "injected in each run (1 = all); writes <experiment>-<scale>.trace.npz and prints "
        "the latency-decomposition and path-share tables "
        "(requires --telemetry-dir)",
    )
    parser.add_argument(
        "--timeseries-window",
        type=int,
        default=None,
        metavar="N",
        help="enable the windowed time-series recorder with N-cycle "
        "windows; writes <experiment>-<scale>.timeseries.npz, embeds a "
        "per-run steady-state (warmup-sufficiency) report in the manifest "
        "and prints its summary (requires --telemetry-dir)",
    )
    parser.add_argument(
        "--linkstate",
        nargs="?",
        const=100,
        default=None,
        type=int,
        metavar="WINDOW",
        help="enable dense per-link state capture (flits forwarded, credit "
        "stalls, peak VC occupancy per directed link) in WINDOW-cycle "
        "windows (default window: 100); writes "
        "<experiment>-<scale>.linkstate.npz — the input of 'inspect' "
        "(requires --telemetry-dir)",
    )
    parser.add_argument(
        "--flowstats",
        action="store_true",
        help="enable per-(src,dst) flow telemetry (delivered count, "
        "latency sum/max and an exact per-pair latency histogram); "
        "writes <experiment>-<scale>.flowstats.npz — the input of "
        "'flows' (requires --telemetry-dir)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each experiment under cProfile; writes "
        "<experiment>-<scale>.profile.pstats next to the manifest, records "
        "the path in the manifest, and prints the top-10 cumulative "
        "hotspots (requires --telemetry-dir)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="live run monitor on stderr: in-place dashboard (progress, "
        "throughput/latency sparklines, per-worker heartbeats with a "
        "stale-worker watchdog) for parallel grids and precomputes",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="structured-log threshold; 'info' shows per-task progress "
        "and stage events (default: warning)",
    )
    args = parser.parse_args(argv)

    obs_log.set_level(args.log_level)
    if args.processes < 1:
        parser.error("--processes must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    telemetry_dir = Path(args.telemetry_dir) if args.telemetry_dir else None
    if args.trace_sample is not None:
        if args.trace_sample < 1:
            parser.error("--trace-sample must be >= 1")
        if telemetry_dir is None:
            parser.error("--trace-sample requires --telemetry-dir")
    if args.timeseries_window is not None:
        if args.timeseries_window < 1:
            parser.error("--timeseries-window must be >= 1")
        if telemetry_dir is None:
            parser.error("--timeseries-window requires --telemetry-dir")
    if args.linkstate is not None:
        if args.linkstate < 1:
            parser.error("--linkstate window must be >= 1")
        if telemetry_dir is None:
            parser.error("--linkstate requires --telemetry-dir")
    if args.flowstats and telemetry_dir is None:
        parser.error("--flowstats requires --telemetry-dir")
    if args.profile and telemetry_dir is None:
        parser.error("--profile requires --telemetry-dir")
    if args.run_ledger is not None and telemetry_dir is None:
        parser.error("--run-ledger requires --telemetry-dir")

    if args.pairs_on_demand is not None and args.pairs_on_demand < 1:
        parser.error("--pairs-on-demand must be >= 1")

    store = None
    if args.path_store is not None:
        from repro.core.store import ArenaStore

        store = (
            ArenaStore.default()
            if args.path_store == "default"
            else ArenaStore(args.path_store)
        )

    names = list(EXPERIMENTS) if "all" in args.experiment else args.experiment
    if args.live:
        obs_monitor.enable()
    try:
        for name in names:
            if telemetry_dir is not None:
                # A fresh registry (and recorder) per experiment keeps each
                # manifest's snapshot scoped to its own run.
                metrics.enable()
                if args.trace_sample is not None:
                    obs_trace.enable(sample=args.trace_sample)
                if args.timeseries_window is not None:
                    obs_timeseries.enable(window=args.timeseries_window)
                if args.linkstate is not None:
                    obs_linkstate.enable(window=args.linkstate)
                if args.flowstats:
                    obs_flowstats.enable()
                obs_log.open_jsonl(
                    telemetry_dir / f"{name}-{args.scale}.events.jsonl"
                )
            obs_log.info(
                "experiment_start",
                experiment=name, scale=args.scale, seed=args.seed,
                processes=args.processes,
            )
            t0 = time.perf_counter()
            profiler = None
            if args.profile:
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
            try:
                with metrics.span(f"experiment.{name}"):
                    result = run_experiment(
                        name, scale=args.scale, seed=args.seed,
                        processes=args.processes, path_store=store,
                        pairs_on_demand=args.pairs_on_demand,
                    )
            finally:
                if profiler is not None:
                    profiler.disable()
            wall = time.perf_counter() - t0
            obs_log.info(
                "experiment_done", experiment=name, wall_time_s=round(wall, 3)
            )
            print(result.to_text())
            print()
            if args.export_dir is not None:
                from repro.report import save_result

                out = Path(args.export_dir)
                out.mkdir(parents=True, exist_ok=True)
                save_result(result, out / f"{name}.json")
                save_result(result, out / f"{name}.csv")
            if telemetry_dir is not None:
                _emit_telemetry(name, args, wall, telemetry_dir, profiler)
    finally:
        layers.disable_all()
        obs_monitor.disable()
        obs_log.close_jsonl()
    return 0


def _emit_telemetry(
    name: str, args, wall: float, telemetry_dir: Path, profiler=None
) -> None:
    """Write the run manifest (and trace/time series), print the summary."""
    from repro.report import link_load_report, stage_timing_table

    steady_report = None
    ts_path = None
    if args.timeseries_window is not None:
        steady_report, ts_path = _emit_timeseries(name, args, telemetry_dir)
    ls_path = None
    if args.linkstate is not None:
        ls_path = _emit_linkstate(name, args, telemetry_dir)
    # Flowstats must land before the metrics snapshot: the derived SLO
    # gauges (fairness, worst-pair p99) are stamped into the still-active
    # registry so they reach the manifest and the ledger.
    fs_path = None
    if args.flowstats:
        fs_path = _emit_flowstats(name, args, telemetry_dir)
    profile_path = None
    if profiler is not None:
        profile_path = _emit_profile(name, args, telemetry_dir, profiler)
    snap = metrics.snapshot() or {}
    doc = build_manifest(
        experiment=name,
        scale=args.scale,
        seed=args.seed,
        config={
            "processes": args.processes,
            "path_store": args.path_store,
            "pairs_on_demand": args.pairs_on_demand,
            "export_dir": args.export_dir,
            "trace_sample": args.trace_sample,
            "timeseries_window": args.timeseries_window,
            "linkstate": args.linkstate,
            "flowstats": args.flowstats,
            "profile": args.profile,
        },
        wall_time_s=wall,
        metrics_snapshot=snap,
        steady_state=steady_report,
        profile=str(profile_path) if profile_path is not None else None,
    )
    path = write_manifest(doc, telemetry_dir, f"{name}-{args.scale}.manifest.json")
    ledger_path = _feed_ledger(doc, args, telemetry_dir)
    print(stage_timing_table(snap.get("timers", {})))
    link_arrays = {
        key.split("/", 1)[1]: values
        for key, values in snap.get("arrays", {}).items()
        if key.startswith("netsim.link_flits/")
    }
    if link_arrays:
        print()
        print(link_load_report(link_arrays))
    if steady_report is not None:
        print()
        print(
            f"steady state: {steady_report['n_warmup_sufficient']}"
            f"/{steady_report['n_runs']} runs had sufficient warmup "
            f"({steady_report['n_converged']} converged, "
            f"{steady_report['n_undetermined']} undetermined; "
            f"check_windows={steady_report['check_windows']}, "
            f"rel_tol={steady_report['rel_tol']})"
        )
    if args.trace_sample is not None:
        _emit_trace(name, args, telemetry_dir)
    if ts_path is not None:
        print(f"# timeseries: {ts_path}")
    if ls_path is not None:
        print(f"# linkstate: {ls_path}")
        print(
            f"# inspect it: python -m repro.experiments inspect "
            f"{telemetry_dir}"
        )
    if fs_path is not None:
        print(f"# flowstats: {fs_path}")
        print(
            f"# flow SLOs:  python -m repro.experiments flows "
            f"{telemetry_dir}"
        )
    if profile_path is not None:
        print(f"# profile:  {profile_path}")
    print(f"# manifest: {path}")
    if ledger_path is not None:
        print(f"# ledger:   {ledger_path}")
    print()
    obs_log.info("manifest_written", experiment=name, path=str(path))
    obs_log.close_jsonl()


def _feed_ledger(doc, args, telemetry_dir: Path):
    """Append the manifest's ledger entry; return the ledger path.

    Every telemetry-enabled run feeds the persistent cross-run index
    automatically — ``--run-ledger PATH`` overrides the destination
    (``$REPRO_RUN_LEDGER``, else a ``run-ledger.jsonl`` next to the
    manifests).  Appends are atomic and content-deduplicated, so
    re-running an identical manifest is a no-op.
    """
    from repro.obs.ledger import (
        append_entries,
        default_ledger_path,
        manifest_entry,
    )

    ledger_path = (
        Path(args.run_ledger)
        if args.run_ledger is not None
        else default_ledger_path(telemetry_dir)
    )
    appended = append_entries(ledger_path, [manifest_entry(doc)])
    obs_log.info(
        "ledger_appended",
        experiment=doc.get("experiment"),
        path=str(ledger_path),
        appended=appended,
    )
    return ledger_path


def _emit_profile(name: str, args, telemetry_dir: Path, profiler) -> Path:
    """Dump the cProfile stats, print the hotspot table, return the path."""
    import pstats

    from repro.report import profile_hotspots_table

    telemetry_dir.mkdir(parents=True, exist_ok=True)
    profile_path = telemetry_dir / f"{name}-{args.scale}.profile.pstats"
    profiler.dump_stats(profile_path)
    stats = pstats.Stats(profiler)
    print()
    print(profile_hotspots_table(stats, top=10))
    obs_log.info(
        "profile_written", experiment=name, path=str(profile_path)
    )
    return profile_path


def _emit_timeseries(name: str, args, telemetry_dir: Path):
    """Persist the window buffers; return (steady report, path or None)."""
    from repro.obs.timeseries import save_timeseries, steady_state_report

    snap = obs_timeseries.snapshot()
    obs_timeseries.disable()
    if snap is None or not snap["n_windows"]:
        return None, None
    ts_path = telemetry_dir / f"{name}-{args.scale}.timeseries.npz"
    save_timeseries(ts_path, snap)
    report = steady_state_report(snap)
    obs_log.info(
        "timeseries_written",
        experiment=name,
        path=str(ts_path),
        runs=int(snap["n_runs"]),
        windows=int(snap["n_windows"]),
        warmup_sufficient=int(report["n_warmup_sufficient"]),
        warmup_undetermined=int(report["n_undetermined"]),
    )
    return report, ts_path


def _emit_linkstate(name: str, args, telemetry_dir: Path):
    """Persist the dense link-state matrices; return the path or None."""
    from repro.obs.linkstate import save_linkstate

    snap = obs_linkstate.snapshot()
    obs_linkstate.disable()
    if snap is None or not snap["n_windows"]:
        return None
    ls_path = telemetry_dir / f"{name}-{args.scale}.linkstate.npz"
    save_linkstate(ls_path, snap)
    obs_log.info(
        "linkstate_written",
        experiment=name,
        path=str(ls_path),
        runs=int(snap["n_runs"]),
        windows=int(snap["n_windows"]),
    )
    return ls_path


def _emit_flowstats(name: str, args, telemetry_dir: Path):
    """Persist the per-pair flow record and stamp its derived SLO gauges.

    Returns the artifact path, or None when nothing was recorded.  The
    worst-run Jain index and worst pair p99 go into the *still-active*
    registry so the manifest snapshot taken right after includes them.
    """
    from repro.obs.fairness import snapshot_gauges
    from repro.obs.flowstats import save_flowstats

    snap = obs_flowstats.snapshot()
    obs_flowstats.disable()
    if snap is None or not snap["n_runs"]:
        return None
    fs_path = telemetry_dir / f"{name}-{args.scale}.flowstats.npz"
    save_flowstats(fs_path, snap)
    reg = metrics.active()
    if reg is not None:
        for gname, value in sorted(snapshot_gauges(snap).items()):
            g = reg.gauge(gname)
            g.set(max(g.value, value))
    obs_log.info(
        "flowstats_written",
        experiment=name,
        path=str(fs_path),
        runs=int(snap["n_runs"]),
        pairs=int(snap["n_pairs"]),
    )
    return fs_path


def _emit_trace(name: str, args, telemetry_dir: Path) -> None:
    """Persist the flight-recorder buffers and print trace summaries."""
    from repro.obs.trace import TraceAnalysis
    from repro.report import latency_decomposition_table, path_share_table

    tsnap = obs_trace.snapshot()
    if tsnap is None or not tsnap["n_packets"]:
        obs_trace.disable()
        return
    trace_path = telemetry_dir / f"{name}-{args.scale}.trace.npz"
    obs_trace.save_trace(trace_path, tsnap)
    analysis = TraceAnalysis(tsnap)
    decomp = analysis.latency_decomposition()
    if decomp:
        print()
        print(latency_decomposition_table(decomp))
    shares = analysis.path_shares()
    if shares:
        print()
        print(path_share_table(shares))
    print(f"# trace:    {trace_path}")
    obs_log.info(
        "trace_written",
        experiment=name,
        path=str(trace_path),
        packets=int(tsnap["n_packets"]),
        events=int(tsnap["n_events"]),
    )
    obs_trace.disable()
