"""The benchmark's four workloads, one execution per child process.

``run.py`` starts this file once per repeat, so every repeat pays for a
fresh interpreter and finds no in-process memo (the experiment modules
memoise reports per process).  A child builds its inputs from the seed,
times one call into the program, and prints one JSON line::

    {"ready_at": ..., "wall_s": ..., "peak_rss_mb": ..., "outputs": {...}}

``ready_at`` is ``time.monotonic()`` when the inputs were ready; the
parent subtracts its own spawn time from it, so set-up time counts from
before the interpreter started.  With ``--trace FILE`` the child also
wraps the program's layer calls (see ``trace.py``), writes the spans to
``FILE`` as JSONL and adds the per-layer metrics to its line.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 benchmarks/e2e/workloads.py \\
        --workload fig9_sweep --seed 0 --phase run --work-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

#: Tables II-IV row at paper scale: RRG(720,24,19), k=8, all four schemes,
#: 600 sampled pairs (the medium preset's sample size), seeds derived
#: exactly as ``compute_reports("paper", seed, pairs_on_demand=600)``
#: derives them.
PT_SPEC = (720, 24, 19)
PT_PAIRS = 600
PT_K = 8

#: The forensics grid: a library grid, because every small preset has one
#: pattern per cell and so never packs more than one batched lane.  Its 24
#: switches (4 hosts and 6 uplinks each) keep one execution near 8 s at the
#: reference host speed, and some of its lanes still saturate.
GRID_SPEC = (24, 10, 6)
GRID_PATTERNS = 4
GRID_SCHEMES = ("redksp",)
GRID_MECHANISMS = ("ksp_adaptive", "ksp_ugal")
GRID_RATES = (0.5, 0.7, 0.9)
GRID_K = 4
GRID_WINDOW = 100


def load_trace_module():
    """This directory's ``trace.py``, loaded by path.

    A plain ``import trace`` could return the standard library module of
    the same name if something imported it first.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "e2e_trace", Path(__file__).with_name("trace.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NoTracer:
    """Stands in for the tracer in untraced executions."""

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield attrs


# ---------------------------------------------------------------- fig9_sweep
#: Figure 9 at small scale, its rEDKSP row: the preset's shift pattern on
#: RRG(12,10,6), its 10-rung ladder (0.1 to 1.0) and cycle budget for each
#: of the 5 mechanisms, seeded as ``run_fig`` seeds them, so the row is the
#: rEDKSP row of ``run_experiment("fig9", "small", seed)``.
FIG9_FIGURE = 9
FIG9_SCHEME = "redksp"
FIG9_RUNGS = 10


def fig9_setup(seed):
    from repro.experiments.presets import netsim_preset
    from repro.netsim import PatternTraffic
    from repro.topology import Jellyfish
    from repro.traffic import random_shift
    from repro.utils.rng import spawn_rngs

    preset = netsim_preset("small", FIG9_FIGURE)
    spec = preset["topo"]
    topo_rng, *pat_rngs = spawn_rngs(seed, preset["n_patterns"] + 1)
    topo = Jellyfish(spec.n, spec.x, spec.y, seed=topo_rng)
    traffics = [PatternTraffic(random_shift(topo.n_hosts, seed=r)) for r in pat_rngs]
    # run_fig draws one cache seed per scheme, in the preset's order.
    scheme_index = preset["schemes"].index(FIG9_SCHEME)
    cache_seeds = [int(topo_rng.integers(2**31)) for _ in range(scheme_index + 1)]
    return {
        "preset": preset, "topo": topo, "traffics": traffics,
        "scheme_index": scheme_index, "cache_seed": cache_seeds[-1],
    }


def fig9_run(inputs, tracer, work_dir):
    import numpy as np

    from repro.core import PathCache
    from repro.netsim import saturation_throughput

    preset, si = inputs["preset"], inputs["scheme_index"]
    cache = PathCache(inputs["topo"], FIG9_SCHEME, k=preset["k"], seed=inputs["cache_seed"])
    row = {}
    for mi, mech in enumerate(preset["mechanisms"]):
        values = []
        for i, traffic in enumerate(inputs["traffics"]):
            cell_seed = np.random.SeedSequence(entropy=FIG9_FIGURE, spawn_key=(si, mi, i))
            with tracer.span("netsim.sweep"):
                values.append(saturation_throughput(
                    inputs["topo"], cache, mech, traffic, rates=preset["rates"],
                    config=preset["config"], seed=cell_seed,
                )[0])
        row[mech] = float(np.mean(values))
    return {"throughput": {FIG9_SCHEME: row}}


def fig9_work_scale(outputs) -> float:
    """Rungs of the full ladder over the rungs this seed's row needs.

    The sweep stops each cell at its first saturated rung, so its work
    depends on the seed: seeds 0-9 need 39 to 50 simulations.  Times this
    factor, the sweep's time is that of the full ladder at the seed's cost
    per rung, which varies far less between seeds.  The rungs are counted
    from the output row, as a rung-by-rung ladder needs them, not from
    the simulations the program ran, so a search that runs fewer of them
    still reads faster.
    """
    row = outputs["throughput"][FIG9_SCHEME]
    needed = sum(min(FIG9_RUNGS, round(t * FIG9_RUNGS) + 1) for t in row.values())
    return len(row) * FIG9_RUNGS / needed


# ------------------------------------------------------------ stencil_table5
def experiment_setup(seed):
    from repro.experiments.runner import run_experiment

    return {"run_experiment": run_experiment, "seed": seed}


def stencil_run(inputs, tracer, work_dir):
    return {"makespan_ms": inputs["run_experiment"]("table5", "small", inputs["seed"]).data}


# --------------------------------------------------------- grid_forensics
def grid_setup(seed):
    from repro.netsim import SimConfig
    from repro.netsim.parallel import run_saturation_grid
    from repro.obs import flowstats, linkstate, metrics, timeseries
    from repro.topology import Jellyfish
    from repro.traffic import random_permutation
    from repro.utils.rng import spawn_rngs

    topo_rng, *pat_rngs = spawn_rngs(seed, 1 + GRID_PATTERNS)
    topo = Jellyfish(*GRID_SPEC, seed=topo_rng)
    patterns = [random_permutation(topo.n_hosts, seed=r) for r in pat_rngs]
    metrics.enable()
    linkstate.enable(window=GRID_WINDOW)
    flowstats.enable()
    timeseries.enable(window=GRID_WINDOW)
    return {
        "grid": run_saturation_grid,
        "topo": topo,
        "patterns": patterns,
        "config": SimConfig(
            warmup_cycles=200, sample_cycles=200, n_samples=5, batch_lanes=8
        ),
        "seed": seed,
    }


_ARTIFACTS = ("linkstate", "flowstats", "timeseries")


def grid_run(inputs, tracer, work_dir):
    from repro.obs import flowstats, linkstate, timeseries

    with tracer.span("netsim.grid"):
        grid = inputs["grid"](
            inputs["topo"], GRID_SCHEMES, GRID_MECHANISMS, inputs["patterns"],
            k=GRID_K, rates=GRID_RATES, config=inputs["config"],
            seed=inputs["seed"], processes=1,
        )
    saves = {
        "linkstate": linkstate.save_linkstate,
        "flowstats": flowstats.save_flowstats,
        "timeseries": timeseries.save_timeseries,
    }
    for kind in _ARTIFACTS:
        path = Path(work_dir) / f"grid.{kind}.npz"
        with tracer.span("obs.save", kind=kind) as attrs:
            saves[kind](path)
        attrs["bytes"] = path.stat().st_size
    return {"throughput": {f"{s}/{m}": v for (s, m), v in sorted(grid.items())}}


def _array_digest(snap) -> str:
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(snap):
        value = snap[key]
        if isinstance(value, np.ndarray):
            h.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def grid_check(outputs, work_dir):
    """Reload the saved artifacts and compare them with the live recorders.

    Runs after the timed call (and after the tracer is removed).
    """
    import numpy as np

    from repro.obs import flowstats, linkstate, timeseries

    live = {
        "linkstate": linkstate.snapshot(),
        "flowstats": flowstats.snapshot(),
        "timeseries": timeseries.snapshot(),
    }
    loads = {
        "linkstate": linkstate.load_linkstate,
        "flowstats": flowstats.load_flowstats,
        "timeseries": timeseries.load_timeseries,
    }
    runs, reload_ok, digest, artifact_bytes = {}, {}, {}, 0
    for kind in _ARTIFACTS:
        path = Path(work_dir) / f"grid.{kind}.npz"
        artifact_bytes += path.stat().st_size
        back = loads[kind](path)
        snap = live[kind]
        arrays = [k for k in snap if isinstance(snap[k], np.ndarray)]
        reload_ok[kind] = bool(arrays) and all(
            k in back and np.array_equal(snap[k], back[k]) for k in arrays
        ) and int(back["n_runs"]) == int(snap["n_runs"])
        runs[kind] = int(snap["n_runs"])
        digest[kind] = _array_digest(back)
    outputs["recorder_runs"] = runs
    outputs["artifacts_reload"] = reload_ok
    outputs["artifact_digest"] = digest
    return {"obs.artifact_bytes": artifact_bytes}


# --------------------------------------------------------- pathtables_720
def pathtables_setup(seed):
    from repro.core import ArenaStore, PathCache, path_quality_report
    from repro.experiments.tables234 import SCHEMES, _sample_pairs
    from repro.topology import Jellyfish
    from repro.utils.rng import spawn_rngs

    # compute_reports("paper", seed, pairs_on_demand=PT_PAIRS) draws one
    # generator per topology of the trio (RRG(720,24,19) is the second),
    # then from it the topology, a sample of PT_PAIRS pairs and one cache
    # seed per scheme, in that order.  Its own pair sampler draws the
    # pairs, so the two cannot drift apart.
    rng = spawn_rngs(seed, 3)[1]
    topo = Jellyfish(*PT_SPEC, seed=rng)
    pairs = _sample_pairs(PT_SPEC[0], PT_PAIRS, rng)
    cache_seeds = {s: int(rng.integers(2**31)) for s in SCHEMES}
    return {
        "topo": topo, "pairs": pairs, "cache_seeds": cache_seeds,
        "PathCache": PathCache, "ArenaStore": ArenaStore,
        "report": path_quality_report,
    }


def pathtables_run(inputs, tracer, work_dir):
    store = inputs["ArenaStore"](Path(work_dir) / "store")
    reports, computed = {}, {}
    for scheme, cache_seed in inputs["cache_seeds"].items():
        cache = inputs["PathCache"](inputs["topo"], scheme, k=PT_K, seed=cache_seed)
        computed[scheme] = cache.warm(inputs["pairs"], processes=1, store=store)
        with tracer.span("core.report"):
            reports[scheme] = inputs["report"](
                cache.get(s, d) for s, d in inputs["pairs"]
            )
    return {"report": reports, "computed": computed}


def pathtables_after(outputs, work_dir):
    store = Path(work_dir) / "store"
    return {"core.store_bytes": sum(p.stat().st_size for p in store.glob("*.npz"))}


#: Workload sizes the output checks need.
SHAPES = {
    "fig9_sweep": {},
    "stencil_table5": {},
    "grid_forensics": {
        "rates": GRID_RATES,
        "patterns": GRID_PATTERNS,
        "schemes": len(GRID_SCHEMES),
        "mechanisms": len(GRID_MECHANISMS),
        "cells": len(GRID_SCHEMES) * len(GRID_MECHANISMS) * GRID_PATTERNS,
    },
    "pathtables_720": {"pairs": PT_PAIRS},
}

SETUP = {
    "fig9_sweep": fig9_setup,
    "grid_forensics": grid_setup,
    "stencil_table5": experiment_setup,
    "pathtables_720": pathtables_setup,
}
RUN = {
    "fig9_sweep": fig9_run,
    "grid_forensics": grid_run,
    "stencil_table5": stencil_run,
    "pathtables_720": pathtables_run,
}
#: Factors that bring a workload's time to a fixed amount of work, from
#: its checked outputs; 1 for a workload whose work the seed does not set.
WORK_SCALE = {"fig9_sweep": fig9_work_scale}
#: Post-call steps: output checks that need the child's live state, and
#: per-layer byte counts read from disk.  Not timed.
AFTER = {
    "grid_forensics": grid_check,
    "pathtables_720": pathtables_after,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SETUP), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("run", "warm", "setup"), default="run")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args(argv)

    tracer = _NoTracer()
    if args.trace:
        span_trace = load_trace_module()
        tracer = span_trace.Tracer(args.run_id)
        span_trace.install_layer_hooks(tracer)

    inputs = SETUP[args.workload](args.seed)
    ready_at = time.monotonic()
    line = {"ready_at": ready_at, "phase": args.phase}
    if args.phase == "setup":
        print(json.dumps(line))
        return 0

    t0 = time.perf_counter()
    outputs = RUN[args.workload](inputs, tracer, args.work_dir)
    t1 = time.perf_counter()
    if args.trace:
        tracer.uninstall()
    line.update(
        wall_s=t1 - t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=outputs,
    )
    layers = {}
    after = AFTER.get(args.workload)
    if after is not None:
        layers.update(after(outputs, args.work_dir))
    if args.trace:
        spans = tracer.spans
        layers.update(span_trace.layer_metrics(spans))
        line["layers"] = layers
        line["coverage"] = span_trace.covered_time(spans, t0, t1) / (t1 - t0)
        line["self_s"] = span_trace.self_time_split(
            [s for s in spans if s.start >= t0 and s.end <= t1]
        )
        tracer.write_jsonl(args.trace)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
