"""Output checks for the benchmark's workloads.

Seed 0 is checked against the outputs pinned in ``spec.json``; every seed
is checked against invariants that hold whatever the inputs: throughputs
lie on the rung grid inside [0, 1], edge-disjoint schemes are 100%
disjoint with a link shared at most once, makespans are positive, a warm
path-table start computes nothing and reproduces the cold report, and the
grid's artifacts load back equal to the recorders that wrote them.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, List

_EPS = 1e-9

FIG9_SCHEMES = ("redksp",)
FIG9_MECHANISMS = ("random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive")
FIG9_RUNGS = tuple(round(0.1 * i, 2) for i in range(0, 11))
STENCIL_SCHEMES = ("redksp", "ksp", "rksp")
STENCIL_APPS = ("2dnn", "2dnndiag", "3dnn", "3dnndiag")
ED_SCHEMES = ("edksp", "redksp")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _on_grid(value: float, grid) -> bool:
    return any(abs(value - g) <= _EPS for g in grid)


def _compare(path: str, got, want, rel: float, problems: List[str]) -> None:
    """Recursive equality of JSON-like values, floats to relative ``rel``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                            f" != {sorted(want)}")
            return
        for key in want:
            _compare(f"{path}.{key}", got[key], want[key], rel, problems)
    elif isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not _close(float(got), float(want), rel):
            problems.append(f"{path}: {got!r} != expected {want!r}")
    elif got != want:
        problems.append(f"{path}: {got!r} != expected {want!r}")


def _fig9(outputs, problems):
    table = outputs.get("throughput", {})
    if set(table) != set(FIG9_SCHEMES):
        problems.append(f"fig9 schemes {sorted(table)}")
        return
    for scheme, row in table.items():
        if set(row) != set(FIG9_MECHANISMS):
            problems.append(f"fig9 {scheme} mechanisms {sorted(row)}")
            continue
        for mech, value in row.items():
            if not _on_grid(value, FIG9_RUNGS):
                problems.append(f"fig9 {scheme}/{mech} = {value} is off the rung grid")


def _grid_means(rates, n_patterns):
    """Every mean of ``n_patterns`` values from {0} + rates."""
    values = (0.0,) + tuple(rates)
    return {
        sum(c) / n_patterns
        for c in itertools.combinations_with_replacement(values, n_patterns)
    }


def _grid(outputs, problems, shape):
    means = _grid_means(shape["rates"], shape["patterns"])
    cells = shape["cells"]
    for key, value in outputs.get("throughput", {}).items():
        if not (0.0 <= value <= 1.0 and _on_grid(value, means)):
            problems.append(f"grid {key} = {value} is not a mean of rung values")
    if len(outputs.get("throughput", {})) != shape["schemes"] * shape["mechanisms"]:
        problems.append(f"grid has {len(outputs.get('throughput', {}))} cells")
    runs = outputs.get("recorder_runs", {})
    if len(set(runs.values())) != 1:
        problems.append(f"recorder run counts disagree: {runs}")
    for kind, n in runs.items():
        if not cells <= n <= cells * len(shape["rates"]):
            problems.append(f"{kind} recorded {n} runs for {cells} cells")
    for kind, ok in outputs.get("artifacts_reload", {}).items():
        if not ok:
            problems.append(f"{kind} artifact does not load back equal")
    if len(outputs.get("artifacts_reload", {})) != 3:
        problems.append("grid artifacts missing")


def _stencil(outputs, problems):
    table = outputs.get("makespan_ms", {})
    if set(table) != set(STENCIL_SCHEMES):
        problems.append(f"stencil schemes {sorted(table)}")
        return
    for scheme, row in table.items():
        if set(row) != set(STENCIL_APPS):
            problems.append(f"stencil {scheme} apps {sorted(row)}")
            continue
        for app, ms in row.items():
            if not (isinstance(ms, (int, float)) and math.isfinite(ms) and ms > 0):
                problems.append(f"stencil {scheme}/{app} makespan {ms!r}")


def _pathtables(outputs, problems, shape, schemes):
    cold, warm = outputs.get("cold", {}), outputs.get("warm", {})
    report = cold.get("report", {})
    if set(report) != set(schemes):
        problems.append(f"path-table schemes {sorted(report)}")
        return
    for scheme, rep in report.items():
        if rep.get("pairs") != shape["pairs"]:
            problems.append(f"{scheme}: {rep.get('pairs')} pairs")
        if not rep.get("average_path_length", 0) >= 1.0:
            problems.append(f"{scheme}: average path length {rep.get('average_path_length')}")
        if scheme in ED_SCHEMES and (
            rep.get("fraction_disjoint_pairs") != 1.0 or rep.get("max_link_sharing") != 1
        ):
            problems.append(f"{scheme} is not edge-disjoint: {rep}")
    for scheme, n in cold.get("computed", {}).items():
        if n != shape["pairs"]:
            problems.append(f"cold {scheme} computed {n} pairs")
    for scheme, n in warm.get("computed", {}).items():
        if n != 0:
            problems.append(f"warm {scheme} recomputed {n} pairs")
    if warm.get("report") != report:
        problems.append("warm report differs from the cold report")


def check_outputs(
    workload: str, seed: int, outputs: dict, spec: dict, shape: dict
) -> List[str]:
    """Problems with one execution's outputs; an empty list means correct.

    ``shape`` is the workload's size (``workloads.SHAPES``).
    """
    problems: List[str] = []
    if workload == "fig9_sweep":
        _fig9(outputs, problems)
    elif workload == "grid_forensics":
        _grid(outputs, problems, shape)
    elif workload == "stencil_table5":
        _stencil(outputs, problems)
    elif workload == "pathtables_720":
        # Every seed computes the columns of the pinned seed-0 row.
        row = spec["expected"][workload]["seeds"]["0"]["cold"]["report"]
        _pathtables(outputs, problems, shape, row)
    else:
        problems.append(f"unknown workload {workload!r}")
    pinned = spec.get("expected", {}).get(workload, {})
    if str(seed) in pinned.get("seeds", {}):
        want = pinned["seeds"][str(seed)]
        got = {key: outputs.get(key) for key in want}
        _compare(workload, got, want, pinned.get("rel_tol", 0.0), problems)
    return problems


def canonical(outputs: dict) -> str:
    """A stable text form, for comparing repeats of one input."""
    return json.dumps(outputs, sort_keys=True)


def same_across_repeats(outputs_list: List[dict]) -> Dict[int, str]:
    """``{execution index: message}`` for repeats whose outputs differ
    from the first execution's."""
    if not outputs_list:
        return {}
    first = canonical(outputs_list[0])
    return {
        i: "outputs differ from the run's first execution"
        for i, out in enumerate(outputs_list[1:], start=1)
        if canonical(out) != first
    }
