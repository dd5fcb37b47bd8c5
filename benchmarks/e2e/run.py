"""End-to-end benchmark: four paper workloads and a traced per-layer split.

One run measures one workload at one seed for ``--seconds`` seconds and
prints every metric by name with its unit, then, as its last line, one
JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, taken from traced executions
interleaved with untraced ones (their time ratio is the tracing overhead).

The loop is closed with one client: each repeat of a workload is one
fresh child process (``workloads.py``), started only after the previous
one has exited, with ``processes=1`` and one BLAS/OpenMP thread.  Without
``--workload`` every workload runs, interleaved round-robin, for
``--repeats`` rounds; round ``r`` uses seed ``--seed + r``.  While a
child runs, the parent samples the host's speed on the child's CPU, and
the gated times are given at a reference host speed (``sampled_run``).

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py --workload fig9_sweep --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --repeats 10 --out set.json

Exit status: 0 when every output checked correct, 1 when any execution
failed or produced a wrong output, 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads as workload_defs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_out"

#: No run may outlast this, whatever ``--seconds`` says: no repeat starts
#: unless it should end in time, and a child still running at the cap is
#: killed and counted as failed.
RUN_CAP_S = 170.0
#: Set-up is sampled by this many set-up-only children per run; repeats
#: stop this long before the cap to leave room for them.
SETUP_SAMPLES = 5
SETUP_RESERVE_S = 15.0
#: Trace runs aim for this many (untraced, traced) pairs, time permitting.
TRACE_PAIRS = 2
#: Metrics taken from the warm-start child of ``pathtables_720``.
WARM_LAYER_METRICS = ("core.store_load_s", "core.report_s")
#: While a child runs, the parent times a fixed piece of work this often on
#: the child's CPU (see ``sampled_run``), at least ``MIN_PIECES`` times;
#: more often in set-up-only children, which last a fraction of a second.
SAMPLE_PERIOD_S = 0.05
SETUP_SAMPLE_PERIOD_S = 0.01
MIN_PIECES = 20
#: The piece's time at the measuring host's usual speed (2-vCPU x86_64,
#: Python 3.11), so that host-corrected times read as seconds there.
REFERENCE_PIECE_S = 2.0e-4


def load_config():
    """(BENCHMARK.json, spec.json) as dicts."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(HERE / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return bench, spec


def declared_metrics(bench: dict, trace: bool) -> dict:
    """``{name: unit}`` of the metrics a run reports in this mode."""
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


# ------------------------------------------------------------- children
def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def speed_piece() -> float:
    """Seconds for one fixed piece of pure-Python work (about 0.2 ms).

    Its data is a few cache lines, so what a child leaves in the caches
    hardly changes its time.
    """
    t = time.perf_counter()
    table = [0] * 64
    for i in range(4000):
        table[i & 63] += i % 7
    return time.perf_counter() - t


def sampled_run(cmd, deadline, period=SAMPLE_PERIOD_S):
    """Run ``cmd`` to its end, timing :func:`speed_piece` while it runs.

    The parent moves to one CPU before the child starts, so the child
    inherits it and the two share that CPU.  Every ``period`` seconds the
    parent times one piece there; a piece shares no interpreter, heap or
    data with the child, only the CPU's speed of the moment.  Returns
    ``(proc, stdout, stderr, piece times)``, or ``None`` if the child was
    killed at ``deadline``.
    """
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
    except OSError:
        pass  # unpinned, the pieces track the child's CPU less closely
    pieces = []
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        while True:
            try:
                out, err = proc.communicate(timeout=period)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.communicate()
                    return None
                pieces.append(speed_piece())
    finally:
        os.sched_setaffinity(0, allowed)
    # A child too short for enough samples gets them right after it.
    while len(pieces) < MIN_PIECES:
        pieces.append(speed_piece())
    return proc, out, err, pieces


def _child(workload, seed, phase, work_dir, deadline, spans=None, run_id="run"):
    """Run one child; returns ``(line dict or None, raw setup_s, error)``.

    The line gains ``host_factor``: the reference piece time over the mean
    piece time sampled while the child ran, so that a time the child took
    times ``host_factor`` is that time at the reference host speed.
    """
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--phase", phase, "--work-dir", str(work_dir),
    ]
    if spans is not None:
        cmd += ["--trace", str(spans), "--run-id", run_id]
    period = SETUP_SAMPLE_PERIOD_S if phase == "setup" else SAMPLE_PERIOD_S
    spawned = time.monotonic()
    done = sampled_run(cmd, deadline, period)
    if done is None:
        return None, None, f"{workload}/{phase} killed at the {RUN_CAP_S:.0f} s run cap"
    proc, out, err, pieces = done
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        return None, None, f"{workload}/{phase} exited {proc.returncode}: {' | '.join(tail)}"
    try:
        line = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, None, f"{workload}/{phase} printed no result"
    line["host_factor"] = REFERENCE_PIECE_S / statistics.fmean(pieces)
    return line, line["ready_at"] - spawned, None


class Execution:
    """One repeat of a workload: its children's lines, merged."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = None
        self.wall_ref_s = None
        self.peak_rss_mb = 0.0
        self.outputs = None
        self.layers = None
        self.coverage = None
        self.self_s = None
        self.attempted = 0
        self.errors = []


def run_execution(workload, seed, traced, deadline, tag) -> Execution:
    """Run one repeat; ``pathtables_720`` is a cold child then a warm one."""
    ex = Execution(traced)
    work_dir = WORK / f"{tag}-work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    phases = ("run", "warm") if workload == "pathtables_720" else ("run",)
    lines = {}
    try:
        for phase in phases:
            spans = WORK / "spans" / f"{tag}-{phase}.jsonl" if traced else None
            if spans is not None:
                spans.parent.mkdir(parents=True, exist_ok=True)
            ex.attempted += 1
            line, _, err = _child(
                workload, seed, phase, work_dir, deadline, spans, f"{tag}-{phase}"
            )
            if err is not None:
                ex.errors.append(err)
                return ex
            lines[phase] = line
            ex.peak_rss_mb = max(ex.peak_rss_mb, line["peak_rss_mb"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    main = lines["run"]
    # pathtables_720 builds its tables and then restarts from them; the
    # user waits for both.
    ex.wall_s = sum(line["wall_s"] for line in lines.values())
    ex.wall_ref_s = sum(line["wall_s"] * line["host_factor"] for line in lines.values())
    if workload == "pathtables_720":
        ex.outputs = {"cold": main["outputs"], "warm": lines["warm"]["outputs"]}
    else:
        ex.outputs = main["outputs"]
    if traced:
        ex.layers = dict(main["layers"])
        ex.coverage = main["coverage"]
        ex.self_s = main["self_s"]
        if "warm" in lines:
            warm = lines["warm"]
            for name in WARM_LAYER_METRICS:
                ex.layers[name] = warm["layers"][name]
            ex.layers["core.warm_start_s"] = warm["wall_s"]
    return ex


def _setup_only(workload, seed, deadline, tag):
    """``(raw setup_s, setup_s at the reference host speed, error)``."""
    work_dir = WORK / f"{tag}-setup"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        line, setup_s, err = _child(workload, seed, "setup", work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if err is not None:
        return None, None, err
    return setup_s, setup_s * line["host_factor"], None


# ------------------------------------------------------------------ run
def run_workload(workload, seed, seconds, trace, bench, spec) -> dict:
    """Measure one workload at one seed; returns the run record."""
    shape = workload_defs.SHAPES[workload]
    started = time.monotonic()
    deadline = started + RUN_CAP_S
    stop_at = started + seconds
    tag0 = f"{workload}-s{seed}-p{os.getpid()}"
    executions = []
    errors = []
    took = []
    while True:
        # Trace runs order repeats untraced, traced, traced, untraced, ...
        # so that drift and warm-up favour neither side.
        traced = bool(trace) and len(executions) % 4 in (1, 2)
        t = time.monotonic()
        ex = run_execution(workload, seed, traced, deadline, f"{tag0}-{len(executions)}")
        took.append(time.monotonic() - t)
        executions.append(ex)
        errors += ex.errors
        next_ends = time.monotonic() + statistics.median(took)
        if ex.errors or next_ends > deadline - SETUP_RESERVE_S:
            break
        if trace and (len(executions) < 2 * TRACE_PAIRS or len(executions) % 2):
            continue
        if next_ends > stop_at:
            break

    setup, setup_raw = [], []
    attempted = sum(e.attempted for e in executions)
    failed = sum(1 for e in executions if e.errors)
    while not errors and len(setup) < SETUP_SAMPLES and time.monotonic() < deadline:
        attempted += 1
        raw, setup_s, err = _setup_only(workload, seed, deadline, f"{tag0}-{len(setup)}")
        if err is not None:
            errors.append(err)
            failed += 1
            break
        setup_raw.append(raw)
        setup.append(setup_s)

    done = [e for e in executions if e.outputs is not None]
    for i, e in enumerate(done):
        problems = checks.check_outputs(workload, seed, e.outputs, spec, shape)
        if problems:
            failed += 1
            errors += [f"execution {i}: {p}" for p in problems]
    for i, msg in checks.same_across_repeats([e.outputs for e in done]).items():
        failed += 1
        errors.append(f"execution {i}: {msg}")
    failed = min(failed, attempted)
    # Only a checked output may set the work scale.
    scale = workload_defs.WORK_SCALE.get(workload)
    scale = scale(done[0].outputs) if scale is not None and done and not errors else 1.0

    untraced = [e for e in done if not e.traced]
    traced_ex = [e for e in done if e.traced]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(bool(trace)),
        "executions": len(executions),
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "errors": errors,
        "elapsed_s": time.monotonic() - started,
        "outputs": done[0].outputs if done else None,
        "work_scale": scale,
        "samples": {
            "wall_s": [e.wall_s for e in untraced],
            "wall_ref_s": [e.wall_ref_s * scale for e in untraced],
            "setup_raw_s": setup_raw,
            "setup_s": setup,
            "peak_rss_mb": [e.peak_rss_mb for e in untraced],
        },
    }
    units = declared_metrics(bench, bool(trace))
    values = {}
    if not trace and untraced:
        values = {
            "setup_s": statistics.median(setup) if setup else None,
            "wall_ref_s": statistics.median(record["samples"]["wall_ref_s"]),
            "peak_rss_mb": max(record["samples"]["peak_rss_mb"]),
        }
    elif trace and traced_ex and untraced:
        # A layer the workload never calls reads 0.
        for name in units:
            values[name] = statistics.median(e.layers.get(name, 0.0) for e in traced_ex)
        values["bench.trace_overhead"] = (
            statistics.median(e.wall_ref_s for e in traced_ex)
            / statistics.median(e.wall_ref_s for e in untraced) - 1.0
        )
        values["bench.span_coverage"] = statistics.median(e.coverage for e in traced_ex)
        record["self_s"] = traced_ex[0].self_s
    record["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if values.get(name) is not None
    }
    if len(record["metrics"]) != len(units):
        missing = sorted(set(units) - set(record["metrics"]))
        if not errors:
            errors.append(f"metrics not measured: {missing}")
            record["correct"] = False
            record["failed"] = max(record["failed"], 1)
    return record


def print_record(rec: dict, spec: dict) -> None:
    w = spec["workloads"][rec["workload"]]
    print(
        f"workload {rec['workload']} seed {rec['seed']}: {w['loop']} loop, "
        f"{w['clients']} client, {rec['executions']} execution(s), "
        f"{rec['elapsed_s']:.1f} s"
    )
    for name, m in rec["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, xs in rec["samples"].items():
        if xs and not rec["trace"]:
            q1, q2, q3 = quartiles(xs)
            print(f"  {name + ' samples':<28} n={len(xs)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}")
    rate = rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0
    print(f"  {'error_rate':<28} {rate:>14.6g} ratio ({rec['failed']}/{rec['attempted']})")
    if rec.get("self_s"):
        print("  self time by layer (traced execution):")
        for name, s in rec["self_s"].items():
            print(f"    {name:<26} {s:>10.4f} s")
    for err in rec["errors"]:
        print(f"  FAILED: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the Jellyfish multi-path routing reproduction."
    )
    ap.add_argument("--workload", help="one workload (default: all, round-robin)")
    ap.add_argument("--seed", type=int, help="input seed (default from spec.json)")
    ap.add_argument("--seconds", type=float, help="measuring time per run "
                    "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--repeats", type=int, help="rounds; round r uses seed + r "
                    "(default 1 with --workload, else from spec.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: report per-layer metrics from a traced execution")
    ap.add_argument("--out", help="write every run record to this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"the program is not there: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    bench, spec = load_config()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    workloads = [args.workload] if args.workload else names
    seed = spec["defaults"]["seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    repeats = args.repeats or (1 if args.workload else spec["defaults"]["repeats"])

    records = []
    for r in range(repeats):
        for workload in workloads:
            rec = run_workload(workload, seed + r, seconds, args.trace, bench, spec)
            print_record(rec, spec)
            records.append(rec)
            sys.stdout.flush()
    if args.out:
        doc = {
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "host": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "run_seconds": seconds,
            "runs": records,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(r["correct"] for r in records)
    last = records[-1] if len(records) == 1 else None
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": last["metrics"] if last else {},
    }, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
